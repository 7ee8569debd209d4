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

// schedulingCostRowsDigest is the SHA-256 of MeasureSchedulingCost's
// Probes and ProfilingMs bits for every algorithm at every DefaultSizes
// point of Inception-v3 and NASNet-A.
const schedulingCostRowsDigest = "eb7dc71ae76e8163e8bfd3303da584c59c528a00ac0ce998e5629e20995849f5"

// schedulingCostExportDigest is the SHA-256 of the Export snapshot of the
// profiling table behind one IOS solve of NASNet-A@331.
const schedulingCostExportDigest = "1b5f60a4ec1937c0e0b0b2a12b5329ec49eec2e2ee3cf13671db0ccb6913f354"

// TestSchedulingCostDigest pins the Fig. 14 accounting: which distinct
// probes each scheduler issues through a profiling table, the simulated
// profiler time they add up to (in first-insert order), and every value
// one IOS table records. The two are hashed apart, so a change to how a
// stage is priced can move the recorded values without touching the
// accounting. A change to the probe path that is meant to be invisible
// must leave both digests unchanged.
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
	if got := hex.EncodeToString(h.Sum(nil)); got != schedulingCostRowsDigest {
		t.Errorf("scheduling-cost rows digest %s, recorded %s", got, schedulingCostRowsDigest)
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
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != schedulingCostExportDigest {
		t.Errorf("scheduling-cost export digest %s, recorded %s", got, schedulingCostExportDigest)
	}
}
