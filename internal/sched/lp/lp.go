// Package lp implements the inter-GPU mapping pass of HIOS-LP, the
// paper's headline algorithm (Algorithm 1): iterative longest-path mapping
// across GPUs. HIOS-LP is this pass followed by the shared sliding-window
// intra-GPU pass (Algorithm 2, package window); internal/experiments.Run
// composes the two.
//
// Spatial mapping: the algorithm repeatedly extracts the longest valid path
// from the still-unscheduled part of the computation graph — valid meaning
// its interior vertices have no dependency with already-scheduled operators
// — and tries mapping the whole path onto each GPU in turn. Placing a path
// on one GPU eliminates every transfer along it, which is why the path
// length counts both operator times and transfer times. The GPU giving the
// lowest end-to-end latency of the partial schedule wins.
//
// Temporal placement: after every trial mapping, all scheduled operators
// are re-placed in descending order of their priority indicators (the
// longest weighted path to the model's output, a topological order), each
// starting at the earliest time its GPU and its inputs allow.
package lp

import (
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// Options configures the LP mapping pass.
type Options struct {
	// GPUs is M, the number of homogeneous devices. Must be >= 1.
	GPUs int
}

// Validate reports whether the options are usable: at least one GPU.
func (o Options) Validate() error {
	if o.GPUs < 1 {
		return fmt.Errorf("lp: need at least 1 GPU, got %d", o.GPUs)
	}
	return nil
}

// Schedule runs the LP mapping pass on g under cost model m and returns
// the inter-GPU schedule (one operator per stage): the "inter-GPU w/ LP"
// curve of the paper's figures.
//
//lint:hotpath
func Schedule(g *graph.Graph, m cost.Model, opt Options) (sched.Result, error) {
	if err := opt.Validate(); err != nil {
		return sched.Result{}, err
	}
	n := g.NumOps()
	if n == 0 {
		return sched.Result{Schedule: sched.New(opt.GPUs), Latency: 0}, nil
	}

	// Priority order over the original graph, computed once.
	order := g.ByPriority()

	// The M trial mappings per extracted path run through the
	// InsertEvaluator: each trial re-propagates only the inserted path's
	// dirty frontier, bounded by the incumbent best, and the winning
	// mapping is committed by splicing the path into the baseline
	// (CommitInsert) rather than re-evaluating the whole placement. That
	// requires every data edge to point forward in the priority order,
	// which ByPriority guarantees: it returns a topological order.
	var ie sched.InsertEvaluator
	var pf graph.PathFinder

	unscheduled := make([]bool, n)
	for i := range unscheduled {
		unscheduled[i] = true
	}
	place := make([]int, n)
	for i := range place {
		place[i] = -1
	}
	if _, err := ie.Rebase(g, m, opt.GPUs, order, place); err != nil {
		return sched.Result{}, fmt.Errorf("lp: empty placement: %w", err)
	}

	remaining := n
	for remaining > 0 {
		path, _ := pf.Find(g, unscheduled)
		if len(path) == 0 {
			return sched.Result{}, fmt.Errorf("lp: no path found with %d operators unscheduled", remaining)
		}
		for _, v := range path {
			unscheduled[v] = false
		}
		remaining -= len(path)

		// Try the whole path on every GPU; keep the mapping with the
		// lowest latency of the scheduled subgraph (ties: lowest GPU
		// index, which also exploits GPU homogeneity for the first
		// path — every device is equivalent, so GPU 0 wins). The trial
		// evaluates the placement directly — no Schedule object is
		// built until the mapping loop settles. A trial cut off by the
		// incumbent bound (ok == false) proved it cannot win: it never
		// strictly beats best, which is also what breaks the tie. path
		// is a directed chain, so its topological order is ascending
		// priority position, as TrialInsert requires.
		best := units.Millis(math.Inf(1))
		bestGPU := 0
		for gi := 0; gi < opt.GPUs; gi++ {
			if lat, ok := ie.TrialInsert(gi, path, best); ok && lat < best {
				best, bestGPU = lat, gi
			}
		}
		for _, v := range path {
			place[v] = bestGPU
		}
		if remaining > 0 {
			ie.CommitInsert(bestGPU, path)
		}
	}

	s := sched.FromPlacement(opt.GPUs, order, place)
	var ev sched.Evaluator
	lat, err := ev.Latency(g, m, s)
	if err != nil {
		return sched.Result{}, err
	}
	return sched.Result{Schedule: s, Latency: lat}, nil
}
