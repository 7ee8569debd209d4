package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
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

// TestFig14AccountingCacheInvariant pins dpcache's promise that
// probe-counting models never reach it: Fig. 14's profiling-cost
// accounting for IOS — distinct probes and simulated profiler
// milliseconds against a fresh table — is the same with the block cache
// cold as after an unprofiled IOS solve of the same net has filled it.
func TestFig14AccountingCacheInvariant(t *testing.T) {
	dpcache.Shared().Reset()
	t.Cleanup(dpcache.Shared().Reset)
	cold, err := MeasureSchedulingCost(AlgoIOS, Inception, 299)
	if err != nil {
		t.Fatal(err)
	}
	plat := gpu.DualA40()
	net, err := BuildBenchmark(Inception, plat, 299)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(AlgoIOS, net.G, cost.FromGraph(net.G, cost.DefaultContention()), RunConfig{GPUs: plat.GPUs}); err != nil {
		t.Fatal(err)
	}
	filled := dpcache.Shared().Stats()
	if filled.Blocks == 0 {
		t.Fatal("the unprofiled IOS solve stored no blocks, so the warm run checks nothing")
	}
	warm, err := MeasureSchedulingCost(AlgoIOS, Inception, 299)
	if err != nil {
		t.Fatal(err)
	}
	if after := dpcache.Shared().Stats(); after.Probes() != filled.Probes() {
		t.Fatalf("the profiled IOS solve probed the block cache %d times, want 0", after.Probes()-filled.Probes())
	}
	if cold.Probes != warm.Probes {
		t.Fatalf("probe count depends on block-cache state: cold %d, warm %d", cold.Probes, warm.Probes)
	}
	if math.Float64bits(cold.ProfilingMs) != math.Float64bits(warm.ProfilingMs) {
		t.Fatalf("simulated profiling time depends on block-cache state: cold %v, warm %v",
			cold.ProfilingMs, warm.ProfilingMs)
	}
}
