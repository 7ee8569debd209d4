package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/sched/window"
)

func TestSimpleCrossGPUTransfer(t *testing.T) {
	g := graph.New(2, 1)
	a := g.AddOp(graph.Op{Name: "a", Time: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 2})
	g.AddEdge(a, b, 0.5)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, a)
	s.Append(1, b)

	tr, err := Run(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Latency != 3.5 {
		t.Fatalf("latency = %g, want 3.5", tr.Latency)
	}
	if len(tr.Transfers) != 1 {
		t.Fatalf("transfers = %v, want 1", tr.Transfers)
	}
	x := tr.Transfers[0]
	if x.Depart != 1 || x.Arrive != 1.5 || x.FromGPU != 0 || x.ToGPU != 1 {
		t.Fatalf("transfer record wrong: %+v", x)
	}
	if len(tr.Stages) != 2 || tr.Stages[1].Start != 1.5 {
		t.Fatalf("stage records wrong: %+v", tr.Stages)
	}
}

func TestDedupedTransferPerGPU(t *testing.T) {
	// One producer, two consumers on the same remote GPU: a single
	// physical transfer.
	g := graph.New(3, 2)
	a := g.AddOp(graph.Op{Name: "a", Time: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 1})
	c := g.AddOp(graph.Op{Name: "c", Time: 1})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(a, c, 0.5)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, a)
	s.Append(1, b)
	s.Append(1, c)
	tr, err := Run(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Transfers) != 1 {
		t.Fatalf("expected one deduplicated transfer, got %d", len(tr.Transfers))
	}
}

func TestTransferPerEdgeTime(t *testing.T) {
	// One producer, two consumers on the same remote GPU whose edges take
	// different times: each consumer waits for its own edge, as the
	// evaluator charges it, not for the lowest-ID consumer's.
	g := graph.New(3, 2)
	a := g.AddOp(graph.Op{Name: "a", Time: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 1})
	c := g.AddOp(graph.Op{Name: "c", Time: 1})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(a, c, 3)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, a)
	s.Append(1, b)
	s.Append(1, c)
	want, err := sched.Evaluate(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Latency != 5 || want.Latency != 5 {
		t.Fatalf("latency = %g, evaluator %g, want 5", tr.Latency, want.Latency)
	}
	if len(tr.Transfers) != 2 || tr.Transfers[0].Arrive != 1.5 || tr.Transfers[1].Arrive != 4 {
		t.Fatalf("transfers = %+v, want a->b arriving at 1.5 and a->c at 4", tr.Transfers)
	}
}

func TestDeadlockDetected(t *testing.T) {
	g := graph.New(4, 2)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 1})
	c := g.AddOp(graph.Op{Time: 1})
	d := g.AddOp(graph.Op{Time: 1})
	g.AddEdge(a, b, 0.1)
	g.AddEdge(c, d, 0.1)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, d)
	s.Append(0, a)
	s.Append(1, b)
	s.Append(1, c)
	if _, err := Run(g, m, s); err == nil {
		t.Fatal("simulator accepted a deadlocked schedule")
	}
}

// TestMatchesEvaluator is the central cross-check: the event-driven
// simulator and the analytic evaluator must agree on every schedule.
func TestMatchesEvaluator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randdag.Paper()
		cfg.Ops = 10 + rng.Intn(60)
		cfg.Layers = 2 + rng.Intn(8)
		cfg.Deps = cfg.Ops + rng.Intn(cfg.Ops)
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		gpus := 1 + rng.Intn(4)

		var s *sched.Schedule
		switch kind := rng.Intn(3); kind {
		case 0:
			place := make([]int, cfg.Ops)
			for i := range place {
				place[i] = rng.Intn(gpus)
			}
			s = sched.FromPlacement(gpus, g.ByPriority(), place)
		default:
			// HIOS-LP (kind 1) or HIOS-MR: the sliding-window pass
			// over the inter-GPU mapping.
			var inter sched.Result
			var err error
			if kind == 1 {
				inter, err = lp.Schedule(g, m, lp.Options{GPUs: gpus})
			} else {
				inter, err = mr.Schedule(g, m, mr.Options{GPUs: gpus})
			}
			if err != nil {
				return false
			}
			res, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
			if err != nil {
				return false
			}
			s = res.Schedule
		}

		want, err := sched.Latency(g, m, s)
		if err != nil {
			return false
		}
		tr, err := Run(g, m, s)
		if err != nil {
			return false
		}
		diff := tr.Latency - want
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStageRecordsCoverAllOps(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 30, 5, 60, 3
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	inter, err := lp.Schedule(g, m, lp.Options{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(g, m, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.OpID]bool)
	for _, st := range tr.Stages {
		if st.Finish < st.Start {
			t.Fatalf("stage finishes before it starts: %+v", st)
		}
		for _, op := range st.Ops {
			if seen[op] {
				t.Fatalf("operator %d executed twice", op)
			}
			seen[op] = true
		}
	}
	if len(seen) != g.NumOps() {
		t.Fatalf("executed %d of %d operators", len(seen), g.NumOps())
	}
}

func TestRejectsIncompleteSchedule(t *testing.T) {
	g := graph.New(2, 0)
	g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(1)
	s.Append(0, 0)
	if _, err := Run(g, m, s); err == nil {
		t.Fatal("simulator accepted an incomplete schedule")
	}
}
