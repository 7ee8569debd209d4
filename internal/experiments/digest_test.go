package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
)

// scheduleDigest is the SHA-256 of every algorithm's schedule (stages per
// GPU) and latency bits over digestGraphs × GPUs {1, 2, 4, 12} × Window
// {0, 1, 2, 8}, hashed in that nesting order by writeDigestCase. The root
// package's TestOptimizeDigest pins hios.Optimize to the same value.
const scheduleDigest = "aa773abb14c53edce65cf47d111d909f100eb0f6964271bde52d0772cbc58970"

// figureDigest is the SHA-256 of the rendered AblationWindow,
// AblationIntraGPU, ClusterStudy (3 seeds, 4 GPUs) and OptimalityGap
// (2 seeds, 10 operators) figures.
const figureDigest = "0e5e2560438e36ce4e97a5ccedfe3c8492c70090a8f568f37bcdac30fe25db1d"

type digestGraph struct {
	name string
	g    *graph.Graph
}

// digestGraphs are three paper random models and the two real-system
// benchmarks at their smallest Fig. 12 input sizes.
func digestGraphs(t *testing.T) []digestGraph {
	t.Helper()
	var out []digestGraph
	for seed := int64(1); seed <= 3; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		out = append(out, digestGraph{fmt.Sprintf("random-seed%d", seed), randdag.MustGenerate(cfg)})
	}
	for _, b := range []Benchmark{Inception, NASNet} {
		size := DefaultSizes(b)[0]
		net, err := BuildBenchmark(b, benchPlatform(), size)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestGraph{fmt.Sprintf("%s@%d", b, size), net.G})
	}
	return out
}

// writeDigestCase hashes one algorithm's result: a header naming the
// case, the operators of every stage on every GPU, and the latency bits.
func writeDigestCase(h hash.Hash, name string, gpus, w int, algo string, r sched.Result) {
	fmt.Fprintf(h, "%s gpus=%d w=%d %s\n", name, gpus, w, algo)
	for gi, gs := range r.Schedule.GPUs {
		for _, st := range gs.Stages {
			fmt.Fprintf(h, "%d:%v\n", gi, st.Ops)
		}
	}
	fmt.Fprintf(h, "%016x\n", math.Float64bits(float64(r.Latency)))
}

// TestScheduleDigest pins every algorithm's schedules across GPU counts
// and window sizes, through Run and through runAll with the algorithm
// list in both orders, plus the figures that call the schedulers
// directly. A refactor of the scheduler layer must leave both digests
// unchanged.
func TestScheduleDigest(t *testing.T) {
	reversed := slices.Clone(AllAlgorithms)
	slices.Reverse(reversed)
	h := sha256.New()
	for _, dg := range digestGraphs(t) {
		m := cost.FromGraph(dg.g, cost.DefaultContention())
		for _, gpus := range []int{1, 2, 4, 12} {
			for _, w := range []int{0, 1, 2, 8} {
				cfg := RunConfig{GPUs: gpus, Window: w}
				fwd, _, err := runAll(AllAlgorithms, dg.g, m, cfg)
				if err != nil {
					t.Fatalf("%s gpus=%d w=%d: %v", dg.name, gpus, w, err)
				}
				rev, _, err := runAll(reversed, dg.g, m, cfg)
				if err != nil {
					t.Fatalf("%s gpus=%d w=%d reversed: %v", dg.name, gpus, w, err)
				}
				for i, a := range AllAlgorithms {
					res, err := Run(a, dg.g, m, cfg)
					if err != nil {
						t.Fatalf("%s gpus=%d w=%d %s: %v", dg.name, gpus, w, a, err)
					}
					if err := sameResult(fwd[i], res); err != nil {
						t.Errorf("%s gpus=%d w=%d %s: runAll differs from Run: %v", dg.name, gpus, w, a, err)
					}
					if err := sameResult(rev[len(rev)-1-i], res); err != nil {
						t.Errorf("%s gpus=%d w=%d %s: reversed runAll differs from Run: %v", dg.name, gpus, w, a, err)
					}
					writeDigestCase(h, dg.name, gpus, w, a, res)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleDigest {
		t.Errorf("schedule digest %s, recorded %s", got, scheduleDigest)
	}

	var buf bytes.Buffer
	sim := SimOptions{Seeds: 3, GPUs: 4}
	for _, f := range []func() (Figure, error){
		func() (Figure, error) { return AblationWindow(sim) },
		func() (Figure, error) { return AblationIntraGPU(sim) },
		func() (Figure, error) { return ClusterStudy(sim) },
		func() (Figure, error) { return OptimalityGap(2, 10) },
	} {
		fig, err := f()
		if err != nil {
			t.Fatal(err)
		}
		fig.Render(&buf)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != figureDigest {
		t.Errorf("figure digest %s, recorded %s\n%s", got, figureDigest, buf.String())
	}
}
