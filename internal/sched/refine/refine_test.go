package refine

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
)

func instance(seed int64) (*graph.Graph, cost.Model) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 50, 6, 100, seed
	g := randdag.MustGenerate(cfg)
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func TestImprovesBadPlacement(t *testing.T) {
	g, m := instance(1)
	// Deliberately terrible placement: everything on GPU 0 of 3.
	place := make([]int, g.NumOps())
	s := sched.FromPlacement(3, g.ByPriority(), place)
	before, err := sched.Latency(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Improve(g, m, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency >= before {
		t.Fatalf("local search failed to improve an all-on-one placement: %g -> %g", before, res.Latency)
	}
	if res.Moves == 0 {
		t.Fatal("no moves recorded despite improvement")
	}
	if err := sched.Validate(g, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestNeverWorseThanInput(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, m := instance(seed)
		inter, err := lp.Schedule(g, m, lp.Options{GPUs: 3})
		if err != nil {
			t.Fatal(err)
		}
		full, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Improve(g, m, full.Schedule, Options{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency > full.Latency+1e-9 {
			t.Fatalf("seed %d: refine made HIOS-LP worse: %g -> %g", seed, full.Latency, res.Latency)
		}
	}
}

func TestRefinesInterLP(t *testing.T) {
	// On inter-GPU-only LP schedules the search should find at least
	// occasional improvements across seeds.
	improvedAny := false
	for seed := int64(1); seed <= 6; seed++ {
		g, m := instance(seed)
		inter, err := lp.Schedule(g, m, lp.Options{GPUs: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Improve(g, m, inter.Schedule, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency < inter.Latency-1e-9 {
			improvedAny = true
		}
		if res.Latency > inter.Latency+1e-9 {
			t.Fatalf("seed %d: worse than input: %g -> %g", seed, inter.Latency, res.Latency)
		}
	}
	if !improvedAny {
		t.Fatal("local search never improved any inter-GPU LP schedule")
	}
}

func TestMoveBudgetRespected(t *testing.T) {
	g, m := instance(3)
	place := make([]int, g.NumOps())
	s := sched.FromPlacement(4, g.ByPriority(), place)
	res, err := Improve(g, m, s, Options{MaxMoves: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves > 5 {
		t.Fatalf("moves = %d, budget 5", res.Moves)
	}
}

func TestSingleGPUIsIdentity(t *testing.T) {
	g, m := instance(4)
	s := sched.Sequential(g.ByPriority())
	res, err := Improve(g, m, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatal("single-GPU schedule cannot admit moves")
	}
	want, _ := sched.Latency(g, m, s)
	if res.Latency != want {
		t.Fatalf("latency changed: %g vs %g", res.Latency, want)
	}
}

func TestRejectsIncomplete(t *testing.T) {
	g, m := instance(5)
	s := sched.New(2)
	s.Append(0, 0)
	if _, err := Improve(g, m, s, Options{}); err == nil {
		t.Fatal("accepted an incomplete schedule")
	}
}
