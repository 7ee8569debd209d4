// Package ios implements the Inter-Operator Scheduler of Ding et al.
// (MLSys 2021), the state-of-the-art single-GPU baseline the HIOS paper
// compares against (§V-B).
//
// IOS partitions a computation graph's execution on ONE GPU into stages of
// independent operators and picks the stage decomposition minimizing total
// latency with a dynamic program over "prefix-closed" operator sets: a set
// S is a valid DP state when every predecessor of a member is also a
// member. From state S the next stage may be any non-empty subset of S's
// frontier (operators whose inputs are all in S); such subsets are
// automatically antichains. On a single GPU the latency of a schedule is
// the sum of its stage times, so
//
//	dp[S ∪ T] = min(dp[S ∪ T], dp[S] + t(T)).
//
// The DP is exponential in the graph's width. Exactly as in the original
// paper, two mitigations make it practical:
//
//  1. Block partitioning: CNNs narrow to a single operator between
//     multi-branch cells. Any operator comparable with every other
//     operator (every op either reaches it or is reached by it) splits the
//     problem; blocks are solved independently and concatenated.
//  2. Schedule pruning: within a block, candidate stages are drawn from
//     the first PruneWindow frontier operators (by priority), stages hold
//     at most MaxStage operators, and (for blocks wider than ExactLimit) a
//     beam of the Beam cheapest states per scheduled-operator count is
//     kept. With Beam = 0 the DP is exact.
//
// HIOS adopts IOS's measured t(S) semantics, so the cost.Model supplies
// stage times here exactly as it does for the HIOS algorithms.
package ios

import (
	"fmt"
	"sort"
	"sync"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
)

// Options configures the IOS dynamic program.
type Options struct {
	// MaxStage bounds the number of operators per stage (the paper's
	// max number of concurrent CUDA streams). Zero means 8. A stage is
	// drawn from at most PruneWindow operators, so a larger value acts
	// as PruneWindow.
	MaxStage int
	// PruneWindow bounds how many frontier operators are considered
	// when enumerating candidate stages. Zero means 8.
	PruneWindow int
	// ExactLimit is the largest block size solved exactly (no beam).
	// Zero means 20.
	ExactLimit int
	// Beam bounds the number of DP states kept per scheduled-operator
	// count in blocks wider than ExactLimit. Zero means 32.
	Beam int
	// NoCache bypasses the process-wide block-solve cache
	// (internal/dpcache). Cached solves are bit-identical replays, so
	// this knob exists only for differential testing and cold-path
	// benchmarking.
	NoCache bool
}

// Validate reports whether the options are usable: every bound must be
// non-negative (zero selects its documented default).
func (o Options) Validate() error {
	if o.MaxStage < 0 || o.PruneWindow < 0 || o.ExactLimit < 0 || o.Beam < 0 {
		return fmt.Errorf("ios: negative pruning bound: %+v", o)
	}
	return nil
}

func (o *Options) fill() {
	if o.MaxStage == 0 {
		o.MaxStage = 8
	}
	if o.PruneWindow == 0 {
		o.PruneWindow = 8
	}
	if o.ExactLimit == 0 {
		o.ExactLimit = 20
	}
	if o.Beam == 0 {
		o.Beam = 32
	}
	// A stage is drawn from at most PruneWindow frontier operators of a
	// block of at most maxBlockOps, so a wider MaxStage admits no other
	// stage; capping it keeps the pending ring (MaxStage+1 buckets) sized
	// by what a stage can hold.
	o.MaxStage = min(o.MaxStage, o.PruneWindow, maxBlockOps)
}

// solvers pools solver scratch across Schedule and SolveSequence calls.
// A solver holds no result and resets every structure per block, so a
// pooled solver solves exactly as a fresh one (DESIGN.md §7); the pool
// only saves allocating, zeroing and regrowing the memo, the ring and the
// slabs on every solve.
var solvers = sync.Pool{New: func() any { return new(solver) }}

// putSolver returns s to the pool, dropping the last block's context so
// the pool keeps no caller's graph, model or operators alive. A solve
// that panics never returns its solver.
func putSolver(s *solver) {
	s.block, s.m, s.mm = nil, nil, nil
	solvers.Put(s)
}

// Schedule runs IOS on g under cost model m and returns the single-GPU
// stage decomposition with its latency.
func Schedule(g *graph.Graph, m cost.Model, opt Options) (sched.Result, error) {
	if err := opt.Validate(); err != nil {
		return sched.Result{}, err
	}
	opt.fill()
	sv := solvers.Get().(*solver)
	res, err := sv.schedule(g, m, opt)
	putSolver(sv)
	return res, err
}

// schedule is Schedule on filled options with the given solver, which
// every block of the call shares.
func (sv *solver) schedule(g *graph.Graph, m cost.Model, opt Options) (sched.Result, error) {
	s := sched.New(1)
	if g.NumOps() == 0 {
		return sched.Result{Schedule: s, Latency: 0}, nil
	}
	for _, block := range Blocks(g) {
		stages, err := sv.solveCached(g, m, block, opt)
		if err != nil {
			return sched.Result{}, err
		}
		for _, st := range stages {
			s.AppendStage(0, st)
		}
	}
	lat, err := sched.Latency(g, m, s)
	if err != nil {
		return sched.Result{}, err
	}
	return sched.Result{Schedule: s, Latency: lat}, nil
}

// SolveSequence runs the IOS stage-partitioning dynamic program over an
// arbitrary operator subset (given in descending-priority order),
// constrained only by the data dependencies *within* the subset. It
// returns the stage decomposition in execution order.
//
// This is the primitive behind the §IV-B comparison: applying IOS per GPU
// to a multi-GPU placement ignores cross-GPU dependencies entirely —
// which is exactly the paper's argument for the sliding window — and the
// resulting global schedule may even deadlock; callers must validate it.
func SolveSequence(g *graph.Graph, m cost.Model, ops []graph.OpID, opt Options) ([][]graph.OpID, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	if len(ops) == 0 {
		return nil, nil
	}
	sv := solvers.Get().(*solver)
	stages, err := sv.solveCached(g, m, ops, opt)
	putSolver(sv)
	return stages, err
}

// Blocks partitions the operators into independent scheduling blocks. An
// operator v is a separator when every other operator is an ancestor or a
// descendant of v; blocks span consecutive separators, each block owning
// the separator that opens it. Blocks are returned in topological order,
// each block's operators in descending-priority order.
func Blocks(g *graph.Graph) [][]graph.OpID {
	n := g.NumOps()
	order := g.ByPriority()
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// v is a separator iff every other operator is an ancestor or a
	// descendant: NumAncestors(v) + NumDescendants(v) == n-1, answered by
	// popcounts over the graph's cached transitive-closure bitset (which
	// replaces the hand-rolled per-call bitset DP this function carried).
	cl := g.Closure()
	var seps []graph.OpID
	for v := 0; v < n; v++ {
		id := graph.OpID(v)
		if cl.NumAncestors(id)+cl.NumDescendants(id) == n-1 {
			seps = append(seps, id)
		}
	}
	sort.Slice(seps, func(i, j int) bool { return pos[seps[i]] < pos[seps[j]] })

	// Assign each operator to the block opened by the latest separator
	// that is an ancestor-or-self of it; since separators are totally
	// ordered, priority position decides.
	var blocks [][]graph.OpID
	if len(seps) == 0 {
		blocks = [][]graph.OpID{append([]graph.OpID(nil), order...)}
		return blocks
	}
	sepPos := make([]int, len(seps))
	for i, sv := range seps {
		sepPos[i] = pos[sv]
	}
	nblocks := len(seps)
	first := 0
	if sepPos[0] > 0 {
		nblocks++ // operators before the first separator
		first = 1
	}
	blocks = make([][]graph.OpID, nblocks)
	for _, v := range order {
		p := pos[v]
		// Find the last separator with position <= p.
		idx := sort.Search(len(sepPos), func(i int) bool { return sepPos[i] > p }) - 1
		blocks[first+idx] = append(blocks[first+idx], v)
	}
	// No block is empty: each separator lands in its own block, and the
	// leading block exists only when an operator precedes the first
	// separator.
	return blocks
}
