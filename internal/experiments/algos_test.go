package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
)

// sameResult reports how two results differ: stage by stage on every GPU,
// and the latency bit for bit.
func sameResult(a, b sched.Result) error {
	if math.Float64bits(float64(a.Latency)) != math.Float64bits(float64(b.Latency)) {
		return fmt.Errorf("latency %v vs %v", a.Latency, b.Latency)
	}
	if len(a.Schedule.GPUs) != len(b.Schedule.GPUs) {
		return fmt.Errorf("%d vs %d GPUs", len(a.Schedule.GPUs), len(b.Schedule.GPUs))
	}
	for gi := range a.Schedule.GPUs {
		sa, sb := a.Schedule.GPUs[gi].Stages, b.Schedule.GPUs[gi].Stages
		if len(sa) != len(sb) {
			return fmt.Errorf("GPU %d: %d vs %d stages", gi, len(sa), len(sb))
		}
		for si := range sa {
			if !slices.Equal(sa[si].Ops, sb[si].Ops) {
				return fmt.Errorf("GPU %d stage %d: %v vs %v", gi, si, sa[si].Ops, sb[si].Ops)
			}
		}
	}
	return nil
}

// TestRunAllMatchesRun pins the shared-work helper to Run: deriving
// HIOS-* from the Inter-* schedule must give every algorithm the same
// stages on every GPU and the same latency bits, whichever of the twins
// comes first in the list. Window 1 is the case where Parallelize fuses
// nothing and only re-evaluates.
func TestRunAllMatchesRun(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
	}
	var graphs []instance
	for _, seed := range []int64{1, 2} {
		cfg := randdag.Paper()
		cfg.Seed = seed
		graphs = append(graphs, instance{fmt.Sprintf("random-seed%d", seed), randdag.MustGenerate(cfg)})
	}
	for _, b := range []Benchmark{Inception, NASNet} {
		net, err := BuildBenchmark(b, benchPlatform(), DefaultSizes(b)[0])
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, instance{string(b), net.G})
	}
	reversed := slices.Clone(AllAlgorithms)
	slices.Reverse(reversed)
	lists := [][]string{AllAlgorithms, reversed, multiGPU, {AlgoHIOSMR, AlgoInterMR}}

	for _, inst := range graphs {
		m := cost.FromGraph(inst.g, cost.DefaultContention())
		for _, gpus := range []int{2, 4, 12} {
			for _, w := range []int{0, 1, 2, 8} {
				cfg := RunConfig{GPUs: gpus, Window: w}
				want := make(map[string]sched.Result, len(AllAlgorithms))
				for _, a := range AllAlgorithms {
					res, err := Run(a, inst.g, m, cfg)
					if err != nil {
						t.Fatalf("%s gpus=%d w=%d %s: %v", inst.name, gpus, w, a, err)
					}
					want[a] = res
				}
				for _, algos := range lists {
					got, _, err := runAll(algos, inst.g, m, cfg)
					if err != nil {
						t.Fatalf("%s gpus=%d w=%d %v: %v", inst.name, gpus, w, algos, err)
					}
					for i, a := range algos {
						if err := sameResult(got[i], want[a]); err != nil {
							t.Errorf("%s gpus=%d w=%d %v: %s differs from Run: %v", inst.name, gpus, w, algos, a, err)
						}
					}
				}
			}
		}
	}
}

// TestRunAllErrorsLikeRun checks that runAll rejects what Run rejects and
// names the first algorithm in list order that failed.
func TestRunAllErrorsLikeRun(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 30, 5, 60, 1
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	for _, rc := range []RunConfig{{GPUs: 2, Window: -1}, {GPUs: 0}} {
		for _, algos := range [][]string{AllAlgorithms, {AlgoInterMR, AlgoHIOSMR}} {
			var want error
			var wantAlgo string
			for _, a := range algos {
				if _, err := Run(a, g, m, rc); err != nil {
					want, wantAlgo = err, a
					break
				}
			}
			_, a, err := runAll(algos, g, m, rc)
			if want == nil || err == nil || a != wantAlgo || err.Error() != want.Error() {
				t.Errorf("%+v %v: runAll failed %s with %v, Run failed %s with %v", rc, algos, a, err, wantAlgo, want)
			}
		}
	}
}

// TestSweepSolvesEachGraphOnce pins the per-graph tasks of the sweep:
// Fig. 7's cells share one graph per seed, so the sweep must solve IOS
// once per distinct graph, probing the block cache exactly as often as
// solving those graphs directly and never hitting it.
func TestSweepSolvesEachGraphOnce(t *testing.T) {
	const seeds = 2
	dpcache.Shared().Reset()
	t.Cleanup(dpcache.Shared().Reset)
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		if _, err := ios.Schedule(g, cost.FromGraph(g, cost.DefaultContention()), ios.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	direct := dpcache.Shared().Stats().Probes()

	dpcache.Shared().Reset()
	if _, err := Fig7(SimOptions{Seeds: seeds, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	st := dpcache.Shared().Stats()
	if st.Hits != 0 {
		t.Errorf("sweep hit the block cache %d times, want 0 (a graph was solved twice)", st.Hits)
	}
	if st.Probes() != direct {
		t.Errorf("sweep probed the block cache %d times, solving the %d graphs directly probes %d", st.Probes(), seeds, direct)
	}
}
