package lp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/brute"
	"github.com/shus-lab/hios/internal/sched/seq"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/units"
)

func smallCfg(seed int64) randdag.Config {
	cfg := randdag.Paper()
	cfg.Ops = 40
	cfg.Layers = 6
	cfg.Deps = 80
	cfg.Seed = seed
	return cfg
}

func TestRejectsZeroGPUs(t *testing.T) {
	g := randdag.MustGenerate(smallCfg(1))
	m := cost.FromGraph(g, cost.DefaultContention())
	if _, err := Schedule(g, m, Options{GPUs: 0}); err == nil {
		t.Fatal("accepted 0 GPUs")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil || res.Latency != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
}

func TestSingleGPUInterOnlyEqualsSequential(t *testing.T) {
	g := randdag.MustGenerate(smallCfg(2))
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := seq.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Latency - sq.Latency; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("1-GPU inter-only LP %g != sequential %g", res.Latency, sq.Latency)
	}
}

func TestParallelChainsSplitAcrossGPUs(t *testing.T) {
	// Two independent chains of equal weight: with cheap transfers LP
	// must put them on different GPUs and nearly halve latency.
	g := graph.New(6, 4)
	for i := 0; i < 6; i++ {
		g.AddOp(graph.Op{Time: 2, Util: 1})
	}
	g.AddEdge(0, 1, 0.1)
	g.AddEdge(1, 2, 0.1)
	g.AddEdge(3, 4, 0.1)
	g.AddEdge(4, 5, 0.1)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())

	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 6 {
		t.Fatalf("latency = %g, want 6 (each chain on its own GPU)", res.Latency)
	}
	place := res.Schedule.Placement(6)
	if place[0] != place[1] || place[1] != place[2] {
		t.Fatalf("chain 1 split across GPUs: %v", place)
	}
	if place[3] != place[4] || place[4] != place[5] {
		t.Fatalf("chain 2 split across GPUs: %v", place)
	}
	if place[0] == place[3] {
		t.Fatalf("chains share a GPU: %v", place)
	}
}

func TestKeepsHeavyCommPathTogether(t *testing.T) {
	// A diamond with huge transfer times: splitting the branches would
	// cost more than serializing them, so everything stays on one GPU.
	g := graph.New(4, 4)
	a := g.AddOp(graph.Op{Name: "a", Time: 1, Util: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 1, Util: 1})
	c := g.AddOp(graph.Op{Name: "c", Time: 1, Util: 1})
	d := g.AddOp(graph.Op{Name: "d", Time: 1, Util: 1})
	g.AddEdge(a, b, 50)
	g.AddEdge(a, c, 50)
	g.AddEdge(b, d, 50)
	g.AddEdge(c, d, 50)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.UsedGPUs() != 1 {
		t.Fatalf("expensive comm should keep all ops on one GPU: %v", res.Schedule)
	}
	if res.Latency != 4 {
		t.Fatalf("latency = %g, want 4", res.Latency)
	}
}

// TestFig4Structure follows the shape of the paper's Fig. 4 walk-through:
// a dominant path plus two side paths on 2 GPUs. We verify against the
// exhaustive optimum of the same (placement + priority-order) space.
func TestFig4Structure(t *testing.T) {
	g := graph.New(8, 9)
	v1 := g.AddOp(graph.Op{Name: "v1", Time: 2, Util: 1})
	v2 := g.AddOp(graph.Op{Name: "v2", Time: 3, Util: 1})
	v3 := g.AddOp(graph.Op{Name: "v3", Time: 2, Util: 1})
	v4 := g.AddOp(graph.Op{Name: "v4", Time: 3, Util: 1})
	v5 := g.AddOp(graph.Op{Name: "v5", Time: 2, Util: 1})
	v6 := g.AddOp(graph.Op{Name: "v6", Time: 3, Util: 1})
	v7 := g.AddOp(graph.Op{Name: "v7", Time: 2, Util: 1})
	v8 := g.AddOp(graph.Op{Name: "v8", Time: 2, Util: 1})
	g.AddEdge(v1, v2, 1) // e1
	g.AddEdge(v1, v3, 1) // e2
	g.AddEdge(v2, v4, 1) // e3
	g.AddEdge(v3, v5, 1) // e4
	g.AddEdge(v4, v6, 1) // e5
	g.AddEdge(v5, v6, 1) // e6
	g.AddEdge(v5, v7, 1) // e7
	g.AddEdge(v6, v8, 1) // e8
	g.AddEdge(v7, v8, 1) // e9
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())

	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, res.Schedule); err != nil {
		t.Fatal(err)
	}
	// The longest path v1-v2-v4-v6-v8 must stay on one GPU.
	place := res.Schedule.Placement(8)
	for _, v := range []graph.OpID{v2, v4, v6, v8} {
		if place[v] != place[v1] {
			t.Fatalf("longest path split: %v", place)
		}
	}
	opt, err := brute.BestPlacement(g, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < opt.Latency-1e-9 {
		t.Fatalf("LP %g beat the exhaustive optimum %g: evaluator bug", res.Latency, opt.Latency)
	}
	if res.Latency > opt.Latency*1.15+1e-9 {
		t.Fatalf("LP %g too far from optimum %g on the Fig. 4 structure", res.Latency, opt.Latency)
	}
}

// TestReportedLatencyMatchesEvaluation checks the mapping pass and
// HIOS-LP, the window pass over it.
func TestReportedLatencyMatchesEvaluation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randdag.MustGenerate(smallCfg(seed))
		m := cost.FromGraph(g, cost.DefaultContention())
		inter, err := Schedule(g, m, Options{GPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		full, err := window.Parallelize(g, m, inter.Schedule, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []sched.Result{inter, full} {
			lat, err := sched.Latency(g, m, res.Schedule)
			if err != nil {
				t.Fatalf("returned schedule invalid: %v", err)
			}
			if diff := lat - res.Latency; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("reported %g != evaluated %g", res.Latency, lat)
			}
		}
	}
}

func TestWindowPassNeverHurts(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randdag.MustGenerate(smallCfg(seed))
		m := cost.FromGraph(g, cost.DefaultContention())
		inter, err := Schedule(g, m, Options{GPUs: 3})
		if err != nil {
			t.Fatal(err)
		}
		full, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
		if err != nil {
			t.Fatal(err)
		}
		if full.Latency > inter.Latency+1e-9 {
			t.Fatalf("seed %d: intra pass increased latency %g -> %g", seed, inter.Latency, full.Latency)
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := randdag.MustGenerate(smallCfg(11))
	m := cost.FromGraph(g, cost.DefaultContention())
	a, err := Schedule(g, m, Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(g, m, Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.Schedule.String() != b.Schedule.String() {
		t.Fatal("the LP mapping pass is not deterministic")
	}
}

func TestScheduleInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallCfg(seed)
		cfg.Ops = 10 + rng.Intn(40)
		cfg.Layers = 2 + rng.Intn(6)
		cfg.Deps = cfg.Ops + rng.Intn(cfg.Ops)
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		gpus := 1 + rng.Intn(5)
		inter, err := Schedule(g, m, Options{GPUs: gpus})
		if err != nil {
			return false
		}
		res, err := window.Parallelize(g, m, inter.Schedule, 2+rng.Intn(3))
		if err != nil {
			return false
		}
		if err := sched.Validate(g, res.Schedule); err != nil {
			return false
		}
		// Latency cannot beat the compute critical path and cannot
		// exceed the sequential sum plus all transfers.
		lb := units.Millis(g.CriticalComputeLength())
		ub := g.TotalOpTime()
		for _, e := range g.Edges() {
			ub += e.Time
		}
		return res.Latency >= lb-1e-9 && res.Latency <= units.Millis(ub)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNeverWorseThanBruteOnTiny(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randdag.Paper()
		cfg.Ops = 6 + rng.Intn(4)
		cfg.Layers = 3
		cfg.Deps = cfg.Ops
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		res, err := Schedule(g, m, Options{GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := brute.BestPlacement(g, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency < opt.Latency-1e-9 {
			t.Fatalf("seed %d: LP %g below exhaustive optimum %g", seed, res.Latency, opt.Latency)
		}
	}
}
