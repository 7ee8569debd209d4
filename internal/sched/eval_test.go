package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// paperFig3 builds the six-operator graph of the paper's Fig. 3 schedule
// example: a -> d, a -> e, b -> e, b -> f, c -> f (weights chosen here).
func paperFig3(t *testing.T) (*graph.Graph, cost.Model) {
	t.Helper()
	g := graph.New(6, 5)
	a := g.AddOp(graph.Op{Name: "a", Time: 2, Util: 0.4})
	b := g.AddOp(graph.Op{Name: "b", Time: 1, Util: 0.4})
	c := g.AddOp(graph.Op{Name: "c", Time: 1, Util: 0.4})
	d := g.AddOp(graph.Op{Name: "d", Time: 2, Util: 0.4})
	e := g.AddOp(graph.Op{Name: "e", Time: 2, Util: 0.4})
	f := g.AddOp(graph.Op{Name: "f", Time: 3, Util: 0.4})
	g.AddEdge(a, d, 0.5)
	g.AddEdge(a, e, 0.5)
	g.AddEdge(b, e, 0.5)
	g.AddEdge(b, f, 0.5)
	g.AddEdge(c, f, 0.5)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func TestEvaluateFig3Schedule(t *testing.T) {
	g, m := paperFig3(t)
	// Q1 = {{a}, {d, e}}, Q2 = {{b, c}, {f}} (paper Fig. 3).
	s := New(2)
	s.AppendStage(0, []graph.OpID{0})    // {a}
	s.AppendStage(0, []graph.OpID{3, 4}) // {d, e}
	s.AppendStage(1, []graph.OpID{1, 2}) // {b, c}
	s.AppendStage(1, []graph.OpID{5})    // {f}

	tm, err := Evaluate(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// Stage {b,c}: both util .4, times 1,1 -> t = max(1, .8) = 1.
	// Stage {a}: t=2, starts 0.
	// Stage {d,e}: needs a (same GPU, finish 2) and b (cross, 1+0.5);
	// starts at 2. duration max(2, 1.6) = 2 -> finish 4.
	// Stage {f}: needs b,c (same GPU, finish 1) and prev stage finish 1;
	// starts 1, finish 4.
	if tm.StageStart[0][1] != 2 || tm.StageFinish[0][1] != 4 {
		t.Fatalf("stage {d,e}: [%g, %g], want [2, 4]", tm.StageStart[0][1], tm.StageFinish[0][1])
	}
	if tm.StageStart[1][1] != 1 || tm.StageFinish[1][1] != 4 {
		t.Fatalf("stage {f}: [%g, %g], want [1, 4]", tm.StageStart[1][1], tm.StageFinish[1][1])
	}
	if tm.Latency != 4 {
		t.Fatalf("latency = %g, want 4", tm.Latency)
	}
	if tm.GPUOf[0] != 0 || tm.GPUOf[5] != 1 {
		t.Fatalf("GPUOf wrong: %v", tm.GPUOf)
	}
}

func TestEvaluateCrossGPUTransferCharged(t *testing.T) {
	g := graph.New(2, 1)
	a := g.AddOp(graph.Op{Name: "a", Time: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 1})
	g.AddEdge(a, b, 0.75)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())

	same := New(2)
	same.Append(0, a)
	same.Append(0, b)
	lat, err := Latency(g, m, same)
	if err != nil || lat != 2 {
		t.Fatalf("same-GPU latency = %g (%v), want 2", lat, err)
	}

	split := New(2)
	split.Append(0, a)
	split.Append(1, b)
	lat, err = Latency(g, m, split)
	if err != nil || lat != 2.75 {
		t.Fatalf("split latency = %g (%v), want 2.75", lat, err)
	}
}

func TestEvaluateRejectsIntraStageEdge(t *testing.T) {
	g := graph.New(2, 1)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 1})
	g.AddEdge(a, b, 0)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := New(1)
	s.AppendStage(0, []graph.OpID{a, b})
	if _, err := Evaluate(g, m, s); err == nil {
		t.Fatal("Evaluate accepted dependent operators in one stage")
	}
}

func TestEvaluateRejectsStageCycle(t *testing.T) {
	// a -> b on GPU 1, c -> d on GPU 2, with b after... build an order
	// that deadlocks: GPU1: [b', a'] where b' needs GPU2's d, and GPU2:
	// [d', c'] where d' needs GPU1's... simplest: two cross edges and
	// inverted orders.
	g := graph.New(4, 2)
	a := g.AddOp(graph.Op{Name: "a", Time: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 1})
	c := g.AddOp(graph.Op{Name: "c", Time: 1})
	d := g.AddOp(graph.Op{Name: "d", Time: 1})
	g.AddEdge(a, b, 0.1) // a on GPU0, b on GPU1
	g.AddEdge(c, d, 0.1) // c on GPU1, d on GPU0
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := New(2)
	// GPU0 runs d before a; GPU1 runs b before c. b waits for a, which
	// waits for d (sequence), which waits for c, which waits for b.
	s.Append(0, d)
	s.Append(0, a)
	s.Append(1, b)
	s.Append(1, c)
	if _, err := Evaluate(g, m, s); err == nil {
		t.Fatal("Evaluate accepted a deadlocked schedule")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	g := graph.New(2, 0)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()

	missing := New(1)
	missing.Append(0, a)
	if err := Validate(g, missing); err == nil {
		t.Fatal("Validate accepted a schedule missing an operator")
	}

	dup := New(1)
	dup.Append(0, a)
	dup.Append(0, a)
	dup.Append(0, b)
	if err := Validate(g, dup); err == nil {
		t.Fatal("Validate accepted a duplicated operator")
	}

	unknown := New(1)
	unknown.Append(0, a)
	unknown.Append(0, graph.OpID(9))
	if err := Validate(g, unknown); err == nil {
		t.Fatal("Validate accepted an unknown operator")
	}

	empty := New(1)
	empty.Append(0, a)
	empty.Append(0, b)
	empty.GPUs[0].Stages = append(empty.GPUs[0].Stages, Stage{})
	if err := Validate(g, empty); err == nil {
		t.Fatal("Validate accepted an empty stage")
	}
}

func TestScheduleAccessors(t *testing.T) {
	s := New(3)
	s.Append(0, 0)
	s.AppendStage(2, []graph.OpID{2, 1})
	if s.NumGPUs() != 3 || s.UsedGPUs() != 2 || s.NumStages() != 2 || s.NumOps() != 3 {
		t.Fatalf("accessors wrong: %d %d %d %d", s.NumGPUs(), s.UsedGPUs(), s.NumStages(), s.NumOps())
	}
	if got := s.GPUs[2].Stages[0].Ops; got[0] != 1 || got[1] != 2 {
		t.Fatalf("AppendStage did not sort: %v", got)
	}
	place := s.Placement(3)
	if place[0] != 0 || place[1] != 2 || place[2] != 2 {
		t.Fatalf("Placement = %v", place)
	}
	gpu, stage := s.StageOf(3)
	if gpu[1] != 2 || stage[1] != 0 || gpu[0] != 0 {
		t.Fatalf("StageOf = %v %v", gpu, stage)
	}
	c := s.Clone()
	c.GPUs[0].Stages[0].Ops[0] = 9
	if s.GPUs[0].Stages[0].Ops[0] == 9 {
		t.Fatal("Clone shares stage storage")
	}
	if str := s.String(); !strings.Contains(str, "Q1:") || !strings.Contains(str, "Q3:") {
		t.Fatalf("String() = %q", str)
	}
}

func TestFromPlacementSkipsUnplaced(t *testing.T) {
	g := graph.New(3, 0)
	g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()
	order := []graph.OpID{2, 0, 1}
	place := []int{0, -1, 1}
	s := FromPlacement(2, order, place)
	if s.NumOps() != 2 {
		t.Fatalf("NumOps = %d, want 2", s.NumOps())
	}
	if s.GPUs[1].Stages[0].Ops[0] != 2 {
		t.Fatalf("order not respected: %v", s)
	}
}

func TestSequentialLatencyIsSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomLayered(rng, 30, 50)
	m := cost.FromGraph(g, cost.DefaultContention())
	s := Sequential(g.ByPriority())
	lat, err := Latency(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if diff := lat - units.Millis(g.TotalOpTime()); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sequential latency %g != total op time %g", lat, g.TotalOpTime())
	}
}

// randomLayered builds a random DAG with forward edges only. m is capped
// at the number of distinct forward pairs.
func randomLayered(rng *rand.Rand, n, m int) *graph.Graph {
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddOp(graph.Op{Time: 0.1 + rng.Float64()*3.9, Util: 0.2 + 0.8*rng.Float64()})
	}
	seen := map[[2]int]bool{}
	for len(seen) < m {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.AddEdge(graph.OpID(u), graph.OpID(v), rng.Float64())
	}
	g.MustFinalize()
	return g
}

// TestEvaluateRespectsPrecedenceProperty: for random singleton-stage
// schedules over random placements, every evaluated edge satisfies the
// §III-B constraint and the latency equals the max finish.
func TestEvaluateRespectsPrecedenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomLayered(rng, n, rng.Intn(2*n))
		m := cost.FromGraph(g, cost.DefaultContention())
		gpus := 1 + rng.Intn(4)
		place := make([]int, n)
		for i := range place {
			place[i] = rng.Intn(gpus)
		}
		s := FromPlacement(gpus, g.ByPriority(), place)
		tm, err := Evaluate(g, m, s)
		if err != nil {
			return false
		}
		maxFinish := units.Millis(0)
		for v := 0; v < n; v++ {
			if tm.OpFinish[v] > maxFinish {
				maxFinish = tm.OpFinish[v]
			}
			if tm.OpFinish[v] < tm.OpStart[v] {
				return false
			}
		}
		if tm.Latency != maxFinish {
			return false
		}
		for _, e := range g.Edges() {
			lag := units.Millis(0)
			if place[e.From] != place[e.To] {
				lag = units.Millis(e.Time)
			}
			if tm.OpStart[e.To] < tm.OpFinish[e.From]+lag-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Each distinct error branch of Validate, with the message pinned so
// refactors cannot silently merge branches: duplicate across two stages
// on different GPUs, missing operator, unknown and negative IDs, and
// empty stages.
func TestValidateDuplicateAcrossGPUs(t *testing.T) {
	g := graph.New(2, 0)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()

	dup := New(2)
	dup.Append(0, a)
	dup.Append(0, b)
	dup.Append(1, a) // a again, in a different GPU's stage list
	err := Validate(g, dup)
	if err == nil {
		t.Fatal("Validate accepted an operator scheduled on two GPUs")
	}
	if !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("wrong branch: %v", err)
	}
}

func TestValidateMissingOperatorMessage(t *testing.T) {
	g := graph.New(3, 0)
	a := g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()

	s := New(1)
	s.Append(0, a)
	err := Validate(g, s)
	if err == nil {
		t.Fatal("Validate accepted an incomplete schedule")
	}
	if !strings.Contains(err.Error(), "1 of 3 operators scheduled") {
		t.Fatalf("wrong branch: %v", err)
	}
}

func TestValidateNegativeOperatorID(t *testing.T) {
	g := graph.New(1, 0)
	g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()

	s := New(1)
	s.Append(0, graph.OpID(-1))
	err := Validate(g, s)
	if err == nil {
		t.Fatal("Validate accepted a negative operator ID")
	}
	if !strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("wrong branch: %v", err)
	}
}

func TestValidateEmptyStage(t *testing.T) {
	g := graph.New(1, 0)
	a := g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()

	s := New(1)
	s.Append(0, a)
	s.GPUs[0].Stages = append(s.GPUs[0].Stages, Stage{})
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "is empty") {
		t.Fatalf("empty stage: got %v", err)
	}
}

// Partial evaluation: LatencyFromPlacement must ignore dependencies
// whose endpoint is unplaced (place < 0), as HIOS-LP's trial mappings of
// a partial placement require.
func TestEvaluatePartialDependencies(t *testing.T) {
	g := graph.New(3, 2)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 2})
	c := g.AddOp(graph.Op{Time: 4})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(b, c, 0.5)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())

	// Only a and c placed: the a->b and b->c edges dangle and are
	// ignored, so the two operators run back to back without transfer
	// lag on one GPU.
	place := make([]int, 3)
	place[b] = -1
	var e Evaluator
	lat, err := e.LatencyFromPlacement(g, m, 1, g.ByPriority(), place)
	if err != nil {
		t.Fatalf("LatencyFromPlacement: %v", err)
	}
	if want := m.OpTime(a) + m.OpTime(c); !stats.ApproxEqual(float64(lat), float64(want), 0) {
		t.Fatalf("partial latency %g, want %g", lat, want)
	}
}
