package runtime

import (
	"testing"
	"time"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/experiments"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/seq"
)

// fastOpts keeps wall time tiny in tests.
func fastOpts() Options {
	return Options{WorkPerMs: 2000, CommDelay: time.Microsecond}
}

func testGraph(seed int64, ops int) (*graph.Graph, cost.Model) {
	cfg := randdag.Paper()
	cfg.Ops = ops
	cfg.Layers = 5
	cfg.Deps = 2 * ops
	cfg.Seed = seed
	g := randdag.MustGenerate(cfg)
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func sameOutputs(t *testing.T, a, b map[graph.OpID][]float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("output counts differ: %d vs %d", len(a), len(b))
	}
	for op, av := range a {
		bv, ok := b[op]
		if !ok {
			t.Fatalf("operator %d missing", op)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("operator %d output differs at %d: %g vs %g", op, i, av[i], bv[i])
			}
		}
	}
}

// TestAllSchedulersComputeIdenticalResults is the flagship end-to-end
// check: sequential, IOS, HIOS-LP and HIOS-MR schedules of the same graph,
// executed by the concurrent multi-worker engine with real MPI transfers,
// must produce bit-identical tensors, all equal to the single-threaded
// reference execution.
func TestAllSchedulersComputeIdenticalResults(t *testing.T) {
	g, m := testGraph(1, 40)
	ref := Reference(g, fastOpts())

	run := func(name string, s *sched.Schedule) {
		t.Helper()
		rep, err := Run(g, m, s, fastOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameOutputs(t, ref, rep.Outputs)
	}

	sq, err := seq.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	run("sequential", sq.Schedule)

	io, err := ios.Schedule(g, m, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run("ios", io.Schedule)

	for _, gpus := range []int{2, 4} {
		l, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: gpus})
		if err != nil {
			t.Fatal(err)
		}
		run("hios-lp", l.Schedule)

		r, err := experiments.Run(experiments.AlgoHIOSMR, g, m, experiments.RunConfig{GPUs: gpus})
		if err != nil {
			t.Fatal(err)
		}
		run("hios-mr", r.Schedule)
	}
}

func TestTransfersHappenOnlyAcrossGPUs(t *testing.T) {
	g, m := testGraph(2, 30)
	sq, err := seq.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, m, sq.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 0 {
		t.Fatalf("single-GPU schedule moved %d messages", rep.Messages)
	}

	l, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Schedule.UsedGPUs() > 1 {
		rep, err = Run(g, m, l.Schedule, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Messages == 0 {
			t.Fatal("multi-GPU schedule moved no tensors")
		}
		if rep.MovedBytes == 0 {
			t.Fatal("messages without payload bytes")
		}
	}
}

func TestRefusesInvalidSchedule(t *testing.T) {
	g, m := testGraph(3, 10)
	s := sched.New(2)
	s.Append(0, 0) // missing the rest
	if _, err := Run(g, m, s, fastOpts()); err == nil {
		t.Fatal("executor accepted an incomplete schedule")
	}
}

func TestRefusesDeadlock(t *testing.T) {
	g := graph.New(4, 2)
	a := g.AddOp(graph.Op{Time: 0.1})
	b := g.AddOp(graph.Op{Time: 0.1})
	c := g.AddOp(graph.Op{Time: 0.1})
	d := g.AddOp(graph.Op{Time: 0.1})
	g.AddEdge(a, b, 0.1)
	g.AddEdge(c, d, 0.1)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, d)
	s.Append(0, a)
	s.Append(1, b)
	s.Append(1, c)
	if _, err := Run(g, m, s, fastOpts()); err == nil {
		t.Fatal("executor accepted a deadlocked schedule (would hang)")
	}
}

func TestGPUBusyAccounted(t *testing.T) {
	g, m := testGraph(4, 30)
	l, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, m, l.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GPUBusy) != 2 {
		t.Fatalf("GPUBusy = %v", rep.GPUBusy)
	}
	var total time.Duration
	for _, b := range rep.GPUBusy {
		total += b
	}
	if total <= 0 {
		t.Fatal("no busy time recorded")
	}
	if rep.Wall <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestReferenceDeterministic(t *testing.T) {
	g, _ := testGraph(5, 20)
	a := Reference(g, fastOpts())
	b := Reference(g, fastOpts())
	sameOutputs(t, a, b)
}

func TestSpansCoverExecutionAndConvert(t *testing.T) {
	g, m := testGraph(6, 30)
	l, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, m, l.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != l.Schedule.NumStages() {
		t.Fatalf("spans = %d, want %d stages", len(rep.Spans), l.Schedule.NumStages())
	}
	seen := 0
	for _, sp := range rep.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span ends before start: %+v", sp)
		}
		seen += len(sp.Ops)
	}
	if seen != g.NumOps() {
		t.Fatalf("spans cover %d ops, want %d", seen, g.NumOps())
	}
	tr := rep.SimTrace()
	if tr.Latency <= 0 || len(tr.Stages) != len(rep.Spans) {
		t.Fatalf("SimTrace conversion wrong: latency %g, %d stages", tr.Latency, len(tr.Stages))
	}
	// Stage indices must be sequential per GPU.
	next := map[int]int{}
	byGPU := map[int][]int{}
	for _, st := range tr.Stages {
		byGPU[st.GPU] = append(byGPU[st.GPU], st.Index)
	}
	for gpu, idxs := range byGPU {
		// Indices were assigned in span order; after sorting by start
		// they must still be a permutation of 0..n-1.
		present := make([]bool, len(idxs))
		for _, ix := range idxs {
			if ix < 0 || ix >= len(idxs) || present[ix] {
				t.Fatalf("GPU %d has bad stage indices %v", gpu, idxs)
			}
			present[ix] = true
		}
		_ = next
	}
}
