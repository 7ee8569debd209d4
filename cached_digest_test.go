package hios_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	hios "github.com/shus-lab/hios"
)

// cachedScheduleDigest and cachedFleetDigest pin every schedule and
// serve model priced through CachedCostModel, and the fleet figure built
// on those prices; a change to the pricing path that is meant to be
// output-neutral passes with both constants untouched.
const (
	cachedScheduleDigest = "0dbe1beff50c697f7f88af5f2bfb1eab50c4f480c42ab56bfab9d1c55a7fda5d"
	cachedFleetDigest    = "c6acf7289f78444ea993cdb7532d1ffe41c41bfa370858082d0b273a31e61230"
)

// TestCachedCostModelDigest schedules SqueezeNet@224, Inception-v3@299
// and NASNet-A@331 on every cluster platform preset with every
// algorithm at 2 GPUs, priced through CachedCostModel, and hashes the
// stages per GPU, the latency bits and the derived serve model's
// Latency/Period bits. A second digest hashes the rendered
// AttainmentVsFleet figure at a small sweep size.
func TestCachedCostModelDigest(t *testing.T) {
	type instance struct {
		name  string
		build func(hios.Platform) *hios.Net
	}
	nets := []instance{
		{"squeezenet@224", func(p hios.Platform) *hios.Net { return hios.SqueezeNet(p, 224) }},
		{"inception-v3@299", func(p hios.Platform) *hios.Net { return hios.InceptionV3(p, 299) }},
		{"nasnet-a@331", func(p hios.Platform) *hios.Net { return hios.NASNetA(p, 331) }},
	}
	h := sha256.New()
	for _, pr := range hios.ClusterPresets() {
		for _, inst := range nets {
			net := inst.build(pr.Platform)
			m, err := hios.CachedCostModel(net)
			if err != nil {
				t.Fatalf("%s %s: %v", pr.Key, inst.name, err)
			}
			for _, a := range hios.Algorithms() {
				res, err := hios.Optimize(net.G, m, a, hios.Options{GPUs: 2})
				if err != nil {
					t.Fatalf("%s %s %s: %v", pr.Key, inst.name, a, err)
				}
				sm, err := hios.NewServeModel(inst.name, net.G, m, res.Schedule)
				if err != nil {
					t.Fatalf("%s %s %s: serve model: %v", pr.Key, inst.name, a, err)
				}
				fmt.Fprintf(h, "%s %s %s\n", pr.Key, inst.name, a)
				for gi, gs := range res.Schedule.GPUs {
					for _, st := range gs.Stages {
						fmt.Fprintf(h, "%d:%v\n", gi, st.Ops)
					}
				}
				fmt.Fprintf(h, "%016x %016x %016x\n", math.Float64bits(float64(res.Latency)),
					math.Float64bits(float64(sm.Latency)), math.Float64bits(float64(sm.Period)))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cachedScheduleDigest {
		t.Errorf("schedule digest %s, recorded %s", got, cachedScheduleDigest)
	}

	fig, err := hios.AttainmentVsFleet(hios.FleetSweepOptions{Seeds: 2, Sizes: []int{2, 4}, Requests: 4000, InputSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != cachedFleetDigest {
		t.Errorf("fleet digest %s, recorded %s", got, cachedFleetDigest)
	}
}
