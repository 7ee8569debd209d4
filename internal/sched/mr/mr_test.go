package mr

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
	res, err := Schedule(g, m, Options{GPUs: 3})
	if err != nil || res.Latency != 0 {
		t.Fatalf("empty graph: %+v %v", res, err)
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
		t.Fatalf("1-GPU MR %g != sequential %g", res.Latency, sq.Latency)
	}
}

func TestFirstOpOnGPUOne(t *testing.T) {
	// Algorithm 3 line 5 pins the first (highest-priority) operator to
	// GPU 1.
	g := randdag.MustGenerate(smallCfg(3))
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := g.ByPriority()[0]
	if res.Schedule.Placement(g.NumOps())[first] != 0 {
		t.Fatalf("first operator not on GPU 1: %v", res.Schedule)
	}
}

func TestIndependentOpsSpread(t *testing.T) {
	// Two equal independent chains: MR should use both GPUs.
	g := graph.New(4, 2)
	for i := 0; i < 4; i++ {
		g.AddOp(graph.Op{Time: 2, Util: 1})
	}
	g.AddEdge(0, 1, 0.1)
	g.AddEdge(2, 3, 0.1)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.UsedGPUs() != 2 {
		t.Fatalf("MR left a GPU idle: %v", res.Schedule)
	}
	if res.Latency != 4 {
		t.Fatalf("latency = %g, want 4", res.Latency)
	}
}

// TestReportedLatencyMatchesEvaluation checks the mapping pass and
// HIOS-MR, the window pass over it.
func TestReportedLatencyMatchesEvaluation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randdag.MustGenerate(smallCfg(seed))
		m := cost.FromGraph(g, cost.DefaultContention())
		inter, err := Schedule(g, m, Options{GPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		full, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
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

func TestDeterministic(t *testing.T) {
	g := randdag.MustGenerate(smallCfg(9))
	m := cost.FromGraph(g, cost.DefaultContention())
	a, _ := Schedule(g, m, Options{GPUs: 4})
	b, _ := Schedule(g, m, Options{GPUs: 4})
	if a.Latency != b.Latency || a.Schedule.String() != b.Schedule.String() {
		t.Fatal("the MR mapping pass is not deterministic")
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

func TestNeverBeatsBruteOnTiny(t *testing.T) {
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
			t.Fatalf("seed %d: MR %g below exhaustive optimum %g", seed, res.Latency, opt.Latency)
		}
	}
}
