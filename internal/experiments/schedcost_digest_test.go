package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/profile"
)

// schedulingCostDigest is the SHA-256 of MeasureSchedulingCost's Probes
// and ProfilingMs bits for every algorithm at every DefaultSizes point of
// Inception-v3 and NASNet-A, followed by the Export snapshot of the
// profiling table behind one IOS solve of NASNet-A@331.
const schedulingCostDigest = "f2719eef6a0296e8752f3e0a174748d7f721fe0e17a5f832034f59f99282af82"

// TestSchedulingCostDigest pins the Fig. 14 accounting: which distinct
// probes each scheduler issues through a profiling table, the simulated
// profiler time they add up to (in first-insert order), and every value
// one IOS table records. A change to the probe path that is meant to be
// invisible must leave this digest unchanged.
func TestSchedulingCostDigest(t *testing.T) {
	h := sha256.New()
	for _, b := range []Benchmark{Inception, NASNet} {
		for _, size := range DefaultSizes(b) {
			for _, a := range AllAlgorithms {
				c, err := MeasureSchedulingCost(a, b, size)
				if err != nil {
					t.Fatalf("%s %s@%d: %v", a, b, size, err)
				}
				fmt.Fprintf(h, "%s@%d %s %d %016x\n", b, size, a, c.Probes, math.Float64bits(c.ProfilingMs))
			}
		}
	}
	net, err := BuildBenchmark(NASNet, gpu.DualA40(), 331)
	if err != nil {
		t.Fatal(err)
	}
	tab := profile.NewTable(cost.FromGraph(net.G, cost.DefaultContention()), profile.DefaultWarmup, profile.DefaultRepeats)
	if _, err := Run(AlgoIOS, net.G, tab, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	snap, err := tab.Export(string(NASNet))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(snap)
	if got := hex.EncodeToString(h.Sum(nil)); got != schedulingCostDigest {
		t.Errorf("scheduling-cost digest %s, recorded %s", got, schedulingCostDigest)
	}
}
