package bnb

import (
	"errors"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/brute"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/units"
)

func tiny(seed int64, ops int) (*graph.Graph, cost.Model) {
	cfg := randdag.Paper()
	cfg.Ops = ops
	cfg.Layers = 3
	cfg.Deps = ops + ops/2
	cfg.Seed = seed
	g := randdag.MustGenerate(cfg)
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func TestMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g, m := tiny(seed, 8)
		for _, gpus := range []int{1, 2, 3} {
			want, err := brute.BestPlacement(g, m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Schedule(g, m, Options{GPUs: gpus})
			if err != nil {
				t.Fatal(err)
			}
			if diff := got.Latency - want.Latency; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d M=%d: bnb %g != brute %g", seed, gpus, got.Latency, want.Latency)
			}
			if err := sched.Validate(g, got.Schedule); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestLowerBoundsHeuristics(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := randdag.Paper()
		cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 20, 4, 35, seed
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		opt, err := Schedule(g, m, Options{GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		lpRes, err := lp.Schedule(g, m, lp.Options{GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		mrRes, err := mr.Schedule(g, m, mr.Options{GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if lpRes.Latency < opt.Latency-1e-9 {
			t.Fatalf("seed %d: LP %g beat the optimum %g", seed, lpRes.Latency, opt.Latency)
		}
		if mrRes.Latency < opt.Latency-1e-9 {
			t.Fatalf("seed %d: MR %g beat the optimum %g", seed, mrRes.Latency, opt.Latency)
		}
	}
}

func TestNodeBudgetTruncation(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 22, 4, 40, 3
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 3, MaxNodes: 200})
	if err == nil {
		t.Skip("search finished within 200 nodes; nothing to truncate")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("unexpected error: %v", err)
	}
	if res.Schedule == nil {
		t.Fatal("truncated search returned no schedule")
	}
	if err := sched.Validate(g, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadInput(t *testing.T) {
	g, m := tiny(1, 8)
	if _, err := Schedule(g, m, Options{GPUs: 0}); err == nil {
		t.Fatal("accepted 0 GPUs")
	}
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps = MaxOps+1, 4, MaxOps
	big := randdag.MustGenerate(cfg)
	if _, err := Schedule(big, cost.FromGraph(big, cost.DefaultContention()), Options{GPUs: 2}); err == nil {
		t.Fatal("accepted an oversized graph")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{GPUs: 2})
	if err != nil || res.Latency != 0 {
		t.Fatalf("empty graph: %+v %v", res, err)
	}
}

func TestSingleGPUEqualsSequentialSum(t *testing.T) {
	g, m := tiny(4, 9)
	res, err := Schedule(g, m, Options{GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Latency - units.Millis(g.TotalOpTime()); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("1-GPU optimum %g != total work %g", res.Latency, g.TotalOpTime())
	}
}
