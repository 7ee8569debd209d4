package hios_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	hios "github.com/shus-lab/hios"
	"github.com/shus-lab/hios/internal/experiments"
)

// optimizeDigest is the schedule digest internal/experiments records for
// Run (TestScheduleDigest): Optimize must reproduce it bit for bit.
const optimizeDigest = "aa773abb14c53edce65cf47d111d909f100eb0f6964271bde52d0772cbc58970"

// TestOptimizeDigest runs every algorithm through Optimize and through
// experiments.Run on three paper random models, Inception-v3@299 and
// NASNet-A@331 across GPUs {1, 2, 4, 12} × Window {0, 1, 2, 8}: the two
// must agree stage for stage and in latency bits, and the hash of the
// results must equal the recorded digest.
func TestOptimizeDigest(t *testing.T) {
	type instance struct {
		name string
		g    *hios.Graph
	}
	var graphs []instance
	for seed := int64(1); seed <= 3; seed++ {
		cfg := hios.RandomModelDefaults()
		cfg.Seed = seed
		g, err := hios.RandomModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, instance{fmt.Sprintf("random-seed%d", seed), g})
	}
	graphs = append(graphs,
		instance{"inception-v3@299", hios.InceptionV3(hios.DualA40(), 299).G},
		instance{"nasnet-a@331", hios.NASNetA(hios.DualA40(), 331).G})

	h := sha256.New()
	for _, inst := range graphs {
		m := hios.DefaultCostModel(inst.g)
		for _, gpus := range []int{1, 2, 4, 12} {
			for _, w := range []int{0, 1, 2, 8} {
				for _, a := range hios.Algorithms() {
					res, err := hios.Optimize(inst.g, m, a, hios.Options{GPUs: gpus, Window: w})
					if err != nil {
						t.Fatalf("%s gpus=%d w=%d %s: %v", inst.name, gpus, w, a, err)
					}
					run, err := experiments.Run(string(a), inst.g, m, experiments.RunConfig{GPUs: gpus, Window: w})
					if err != nil {
						t.Fatalf("%s gpus=%d w=%d %s: Run: %v", inst.name, gpus, w, a, err)
					}
					if math.Float64bits(float64(res.Latency)) != math.Float64bits(float64(run.Latency)) ||
						!slices.EqualFunc(res.Schedule.GPUs, run.Schedule.GPUs, sameStages) {
						t.Errorf("%s gpus=%d w=%d %s: Optimize differs from experiments.Run", inst.name, gpus, w, a)
					}
					fmt.Fprintf(h, "%s gpus=%d w=%d %s\n", inst.name, gpus, w, a)
					for gi, gs := range res.Schedule.GPUs {
						for _, st := range gs.Stages {
							fmt.Fprintf(h, "%d:%v\n", gi, st.Ops)
						}
					}
					fmt.Fprintf(h, "%016x\n", math.Float64bits(float64(res.Latency)))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != optimizeDigest {
		t.Errorf("Optimize digest %s, recorded %s", got, optimizeDigest)
	}
}

func sameStages(a, b hios.GPUSchedule) bool {
	return slices.EqualFunc(a.Stages, b.Stages, func(x, y hios.Stage) bool { return slices.Equal(x.Ops, y.Ops) })
}
