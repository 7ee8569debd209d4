package ios

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
)

// poolSolve is one solve of the pooled-solver test: a graph, the options
// and, for a SolveSequence solve, the operator sequence.
type poolSolve struct {
	name string
	g    *graph.Graph
	opt  Options
	seq  []graph.OpID // nil: Schedule on g
	bare bool         // the plain ItemModel instead of a profiling table
}

// outcome is everything a solve returns or leaves in its profiling table.
type outcome struct {
	stages, latency, err string
	stats                profile.Stats
	export               []byte
}

// run solves ps with sv, or through the pool when sv is nil, behind a
// fresh profiling table (or the bare model, with the block cache off).
func (ps poolSolve) run(t *testing.T, sv *solver) outcome {
	t.Helper()
	var m cost.Model = cost.FromGraph(ps.g, cost.DefaultContention())
	tab := profile.NewTable(m, 0, 0)
	opt := ps.opt
	if ps.bare {
		opt.NoCache = true
	} else {
		m = tab
	}
	var out outcome
	var err error
	if ps.seq != nil {
		var stages [][]graph.OpID
		if sv == nil {
			stages, err = SolveSequence(ps.g, m, ps.seq, opt)
		} else {
			opt.fill()
			stages, err = sv.solveCached(ps.g, m, ps.seq, opt)
		}
		out.stages = fmt.Sprint(stages)
	} else {
		var res sched.Result
		if sv == nil {
			res, err = Schedule(ps.g, m, opt)
		} else {
			opt.fill()
			res, err = sv.schedule(ps.g, m, opt)
		}
		if err == nil {
			out.stages = fmt.Sprint(res.Schedule.GPUs[0].Stages)
			out.latency = fmt.Sprint(math.Float64bits(float64(res.Latency)))
		}
	}
	if err != nil {
		out.err = err.Error()
	}
	out.stats = tab.Stats()
	if out.export, err = tab.Export(""); err != nil {
		t.Fatal(err)
	}
	return out
}

func (o outcome) equal(p outcome) bool {
	return o.stages == p.stages && o.latency == p.latency && o.err == p.err &&
		o.stats == p.stats && bytes.Equal(o.export, p.export) //lint:floatexact SimulatedMs must be bit-identical
}

// poolSolves builds the interleaved solves of the pooled-solver tests:
// NASNet-A@1024 under beam (one 370-operator block), a 200-operator
// paper DAG behind the table and bare, Inception-v3 (many small
// blocks), a SolveSequence over that DAG's odd operators, and a graph
// whose second block exceeds maxBlockOps after its first is solved.
func poolSolves(t *testing.T) []poolSolve {
	t.Helper()
	plat := gpu.DualA40()
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 200, 14, 400, 3
	paper := randdag.MustGenerate(cfg)
	var odd []graph.OpID
	for _, v := range paper.ByPriority() {
		if v%2 == 1 {
			odd = append(odd, v)
		}
	}
	return []poolSolve{
		{name: "nasnet", g: model.NASNet(plat.Dev, plat.Link, 1024).G},
		{name: "paper", g: paper, opt: Options{Beam: 8}},
		{name: "paper-bare", g: paper, opt: Options{Beam: 8}, bare: true},
		{name: "inception", g: model.InceptionV3(plat.Dev, plat.Link, 299).G},
		{name: "sequence", g: paper, opt: Options{Beam: 8}, seq: odd},
		{name: "oversized", g: oversized(t)},
	}
}

// oversized returns a diamond (one four-operator block) followed by
// maxBlockOps+88 independent operators between two separators: a block
// the DP refuses after it has solved the diamond.
func oversized(t *testing.T) *graph.Graph {
	t.Helper()
	const wide = maxBlockOps + 88
	g := graph.New(wide+6, 2*wide+5)
	op := func() graph.OpID { return g.AddOp(graph.Op{Time: 1, Util: 0.3}) }
	s, a, b, c, join := op(), op(), op(), op(), op()
	for _, v := range []graph.OpID{a, b, c} {
		g.AddEdge(s, v, 0.1)
		g.AddEdge(v, join, 0.1)
	}
	sink := op()
	for i := 0; i < wide; i++ {
		v := op()
		g.AddEdge(join, v, 0.1)
		g.AddEdge(v, sink, 0.1)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPooledSolverMatchesFresh interleaves solves on one reused solver
// and through the pool, twice over, and checks each against the same
// solve on a fresh solver: the stages, the latency bits, the error, and
// the profiling table's Stats and Export must all be equal.
func TestPooledSolverMatchesFresh(t *testing.T) {
	solves := poolSolves(t)
	fresh := make([]outcome, len(solves))
	for i, ps := range solves {
		fresh[i] = ps.run(t, new(solver))
	}
	if fresh[len(fresh)-1].err == "" || fresh[len(fresh)-1].stats.StageProbes == 0 {
		t.Fatalf("oversized: want an error after probing, got %+v", fresh[len(fresh)-1].stats)
	}
	reused := new(solver)
	for round := 0; round < 2; round++ {
		for i, ps := range solves {
			if got := ps.run(t, reused); !got.equal(fresh[i]) {
				t.Errorf("round %d %s: reused solver differs from a fresh one", round, ps.name)
			}
			if got := ps.run(t, nil); !got.equal(fresh[i]) {
				t.Errorf("round %d %s: pooled solve differs from a fresh one", round, ps.name)
			}
		}
	}
}

// TestPooledSolverConcurrent runs the interleaved solves through the
// pool from 8 goroutines at once, each starting at a different solve, so
// that go test -race covers the shared pool.
func TestPooledSolverConcurrent(t *testing.T) {
	solves := poolSolves(t)
	fresh := make([]outcome, len(solves))
	for i, ps := range solves {
		fresh[i] = ps.run(t, new(solver))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range solves {
				i := (w + k) % len(solves)
				if got := solves[i].run(t, nil); !got.equal(fresh[i]) {
					t.Errorf("goroutine %d %s: pooled solve differs from a fresh one", w, solves[i].name)
				}
			}
		}(w)
	}
	wg.Wait()
}
