package sched

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// Timing is the evaluated timeline of a schedule: the earliest start and
// finish time of every stage (and so of every operator) consistent with the
// precedence constraint of §III-B, plus the resulting end-to-end latency.
type Timing struct {
	// Latency is the makespan: the maximum stage finish time.
	Latency units.Millis
	// StageStart[g][j] / StageFinish[g][j] bound stage j on GPU g.
	StageStart  [][]units.Millis
	StageFinish [][]units.Millis
	// OpStart / OpFinish are per-operator views (members of a stage
	// share its start; each finishes with its stage, matching the
	// paper's model where t(S) is measured for the set as a whole).
	OpStart  []units.Millis
	OpFinish []units.Millis
	// GPUOf maps each operator to its GPU.
	GPUOf []int
}

// Evaluate computes the timing of schedule s for graph g under cost model
// m. It returns an error if the schedule is invalid: an operator is
// missing, duplicated or unknown; a stage contains directly dependent
// operators; or the stage graph (data edges plus per-GPU sequential order)
// contains a cycle, i.e. the schedule would deadlock.
//
// Timing rules (paper §III-A "Stage" and "Operator Synchronization"):
//
//	start(S_{i,j})  >= finish(S_{i,j-1})                      (same GPU)
//	start(S_{i',j'}) >= finish(S_{i,j}) + t(u,v)  for each edge (u,v),
//	                   u in S_{i,j}, v in S_{i',j'}, i != i'  (cross GPU)
//	start(S_{i,j'}) >= finish(S_{i,j})            for edges inside GPU i
//	finish(S) = start(S) + t(S)
//
// All operators of a stage start simultaneously; the stage's duration is
// the cost model's t(S).
func Evaluate(g *graph.Graph, m cost.Model, s *Schedule) (*Timing, error) {
	var e Evaluator
	if err := e.validate(g, s); err != nil {
		return nil, err
	}
	return e.timing(g, m, s)
}

// Latency evaluates the schedule and returns only the makespan.
func Latency(g *graph.Graph, m cost.Model, s *Schedule) (units.Millis, error) {
	var e Evaluator
	return e.Latency(g, m, s)
}

// Evaluator computes schedule timings with reusable scratch buffers. The
// zero value is ready to use. Algorithm 2's sliding window and HIOS-LP's
// trial mappings evaluate thousands of candidate schedules over the same
// graph; holding one Evaluator across those calls removes every per-call
// allocation except the returned Timing (and Latency returns none at all).
//
// The stage DAG lives in compressed (CSR) form: a counting pass sizes the
// flat dependency and successor arrays, a fill pass populates them, and
// the longest-path sweep indexes them by offset. The former
// slice-of-slices adjacency cost two allocations per stage on a cold
// evaluator — the dominant allocation source of every scheduler.
//
// An Evaluator is NOT safe for concurrent use; give each goroutine its
// own. Package-level Evaluate/Latency remain the convenient one-shot form.
type Evaluator struct {
	seen    []bool
	opStage []int
	place   []int
	seqPrev []int // stage id of the same-GPU predecessor stage, -1 for a GPU's first
	indeg   []int
	nsucc   []int
	ready   []int
	depOff  []int // deps of stage id: depFrom/depLag[depOff[id]:depOff[id+1]]
	depFrom []int
	depLag  []units.Millis
	succOff []int // successors of stage id: succTo[succOff[id]:succOff[id+1]]
	succTo  []int
	depCur  []int // fill cursors
	succCur []int
	start   []units.Millis
	finish  []units.Millis
	dur     []units.Millis
	topoSeq []int32       // stage ids in the order the Kahn sweep finished them
	topoPos []int32       // stage id -> index in topoSeq
	one     [1]graph.OpID // singleton-stage scratch for singletonTime
}

// Latency computes the makespan of a complete schedule, reusing the
// evaluator's scratch buffers.
func (e *Evaluator) Latency(g *graph.Graph, m cost.Model, s *Schedule) (units.Millis, error) {
	if err := e.validate(g, s); err != nil {
		return 0, err
	}
	return e.compute(g, m, s)
}

// LatencyFromPlacement computes the makespan of the singleton-stage
// schedule that FromPlacement(nGPUs, order, place) would produce, without
// materializing the Schedule. HIOS-LP calls this once per (path, GPU)
// trial mapping — the hot loop of Algorithm 1 — and with the evaluator's
// scratch warmed the trial runs allocation-free. Operators with
// place < 0 are unscheduled, and dependencies touching them are ignored;
// the implied schedule is
// structurally valid by construction, so no validate pass runs. Stage
// ids, durations and dependency order match compute() on the
// materialized schedule exactly, keeping the two paths bit-identical.
func (e *Evaluator) LatencyFromPlacement(g *graph.Graph, m cost.Model, nGPUs int, order []graph.OpID, place []int) (units.Millis, error) {
	n := g.NumOps()
	ns := 0
	for _, op := range order {
		if place[op] >= 0 {
			ns++
		}
	}
	e.growStageScratch(n, ns)
	id := 0
	for gi := 0; gi < nGPUs; gi++ {
		first := true
		for _, op := range order {
			if place[op] != gi {
				continue
			}
			e.opStage[op] = id
			e.place[op] = gi
			e.dur[id] = e.singletonTime(m, op)
			if first {
				e.seqPrev[id] = -1
				first = false
			} else {
				e.seqPrev[id] = id - 1
			}
			id++
		}
	}
	return e.finishCompute(g, m, ns)
}

// singletonTime returns the cost model's time for the one-operator stage
// {op}, staged through reusable scratch.
func (e *Evaluator) singletonTime(m cost.Model, op graph.OpID) units.Millis {
	e.one[0] = op
	return m.StageTime(e.one[:])
}

// validate checks the structural invariants of s against g using scratch
// storage.
func (e *Evaluator) validate(g *graph.Graph, s *Schedule) error {
	n := g.NumOps()
	e.seen = growSlice(e.seen, n)
	for i := range e.seen {
		e.seen[i] = false
	}
	count := 0
	for gi, q := range s.GPUs {
		for j, st := range q.Stages {
			if len(st.Ops) == 0 {
				return fmt.Errorf("sched: GPU %d stage %d is empty", gi, j)
			}
			for _, op := range st.Ops {
				if op < 0 || int(op) >= n {
					return fmt.Errorf("sched: GPU %d stage %d references unknown operator %d", gi, j, op)
				}
				if e.seen[op] {
					return fmt.Errorf("sched: operator %d scheduled more than once", op)
				}
				e.seen[op] = true
				count++
			}
		}
	}
	if count != n {
		return fmt.Errorf("sched: %d of %d operators scheduled", count, n)
	}
	return nil
}

// compute runs the longest-path evaluation and returns the makespan. The
// schedule must already be validated. After compute returns, e.start,
// e.finish and the stage numbering (sequential over GPUs, then stages)
// hold the full timeline, which timing() copies out.
func (e *Evaluator) compute(g *graph.Graph, m cost.Model, s *Schedule) (units.Millis, error) {
	n := g.NumOps()
	ns := 0
	for gi := range s.GPUs {
		ns += len(s.GPUs[gi].Stages)
	}

	// Index stages: ids are assigned GPU-major, stage-minor, so id order
	// is reproducible from the schedule alone.
	e.growStageScratch(n, ns)
	id := 0
	for gi := range s.GPUs {
		for j := range s.GPUs[gi].Stages {
			ops := s.GPUs[gi].Stages[j].Ops
			for _, op := range ops {
				e.opStage[op] = id
				e.place[op] = gi
			}
			e.dur[id] = m.StageTime(ops)
			if j > 0 {
				e.seqPrev[id] = id - 1
			} else {
				e.seqPrev[id] = -1
			}
			id++
		}
	}
	return e.finishCompute(g, m, ns)
}

// growStageScratch sizes the per-operator and per-stage scratch for a
// graph of n operators and a schedule of ns stages, resetting the
// operator maps to "unscheduled".
func (e *Evaluator) growStageScratch(n, ns int) {
	e.opStage = growSlice(e.opStage, n)
	e.place = growSlice(e.place, n)
	for i := 0; i < n; i++ {
		e.opStage[i] = -1
		e.place[i] = -1
	}
	e.dur = growSlice(e.dur, ns)
	e.seqPrev = growSlice(e.seqPrev, ns)
	e.indeg = growSlice(e.indeg, ns)
	e.nsucc = growSlice(e.nsucc, ns)
}

// finishCompute builds the stage DAG in CSR form from the indexed stages
// (counting pass, prefix sums, fill pass) and runs the longest-path
// evaluation over it. Both passes visit the sequential edges first and
// then the data edges in graph order, so each stage's dependency list is
// ordered exactly as the historical slice-of-slices construction built
// it, keeping evaluation byte-for-byte reproducible against it.
func (e *Evaluator) finishCompute(g *graph.Graph, m cost.Model, ns int) (units.Millis, error) {
	for id := 0; id < ns; id++ {
		e.indeg[id] = 0
		e.nsucc[id] = 0
	}
	for id := 0; id < ns; id++ {
		if p := e.seqPrev[id]; p >= 0 {
			e.indeg[id]++
			e.nsucc[p]++
		}
	}
	for _, ed := range g.Edges() {
		su, sv := e.opStage[ed.From], e.opStage[ed.To]
		if su < 0 || sv < 0 {
			continue // endpoint unscheduled (LatencyFromPlacement's place < 0)
		}
		if su == sv {
			return 0, fmt.Errorf("sched: operators %d and %d share a stage but have a direct dependency", ed.From, ed.To)
		}
		e.indeg[sv]++
		e.nsucc[su]++
	}

	e.depOff = growSlice(e.depOff, ns+1)
	e.succOff = growSlice(e.succOff, ns+1)
	e.depCur = growSlice(e.depCur, ns)
	e.succCur = growSlice(e.succCur, ns)
	nd, nsuc := 0, 0
	for id := 0; id < ns; id++ {
		e.depOff[id] = nd
		e.depCur[id] = nd
		nd += e.indeg[id]
		e.succOff[id] = nsuc
		e.succCur[id] = nsuc
		nsuc += e.nsucc[id]
	}
	e.depOff[ns] = nd
	e.succOff[ns] = nsuc
	e.depFrom = growSlice(e.depFrom, nd)
	e.depLag = growSlice(e.depLag, nd)
	e.succTo = growSlice(e.succTo, nsuc)

	// Fill pass, same iteration order as the counting pass.
	for id := 0; id < ns; id++ {
		if p := e.seqPrev[id]; p >= 0 {
			e.addDep(p, id, 0)
		}
	}
	for _, ed := range g.Edges() {
		su, sv := e.opStage[ed.From], e.opStage[ed.To]
		if su < 0 || sv < 0 {
			continue
		}
		lag := cost.CommBetween(m, ed.From, ed.To, e.place[ed.From], e.place[ed.To])
		e.addDep(su, sv, lag)
	}

	// Longest-path over the stage DAG (Kahn order); a leftover node
	// means a cycle (deadlock: mutually waiting stages, the "implicit
	// dependency" loop Algorithm 2 must detect). The visit order is
	// recorded: it is a topological order of the stage DAG, which
	// FuseEvaluator's dirty-frontier propagation keys on.
	e.start = growSlice(e.start, ns)
	e.finish = growSlice(e.finish, ns)
	e.topoSeq = growSlice(e.topoSeq, ns)
	e.topoPos = growSlice(e.topoPos, ns)
	e.ready = e.ready[:0]
	for id := 0; id < ns; id++ {
		if e.indeg[id] == 0 {
			e.ready = append(e.ready, id)
		}
	}
	visited := 0
	latency := units.Millis(0)
	for len(e.ready) > 0 {
		id := e.ready[len(e.ready)-1]
		e.ready = e.ready[:len(e.ready)-1]
		e.topoSeq[visited] = int32(id)
		e.topoPos[id] = int32(visited)
		visited++
		t := units.Millis(0)
		for k := e.depOff[id]; k < e.depOff[id+1]; k++ {
			if x := e.finish[e.depFrom[k]] + e.depLag[k]; x > t {
				t = x
			}
		}
		e.start[id] = t
		e.finish[id] = t + e.dur[id]
		if e.finish[id] > latency {
			latency = e.finish[id]
		}
		for k := e.succOff[id]; k < e.succOff[id+1]; k++ {
			w := e.succTo[k]
			e.indeg[w]--
			if e.indeg[w] == 0 {
				e.ready = append(e.ready, w)
			}
		}
	}
	if visited != ns {
		return 0, fmt.Errorf("sched: stage graph has a cycle (%d of %d stages schedulable): %w", visited, ns, graph.ErrCycle)
	}
	return latency, nil
}

// addDep records start(to) >= finish(from) + lag in the CSR arrays.
func (e *Evaluator) addDep(from, to int, lag units.Millis) {
	k := e.depCur[to]
	e.depFrom[k] = from
	e.depLag[k] = lag
	e.depCur[to] = k + 1
	k = e.succCur[from]
	e.succTo[k] = to
	e.succCur[from] = k + 1
}

// timing runs compute and copies the timeline into a fresh Timing.
func (e *Evaluator) timing(g *graph.Graph, m cost.Model, s *Schedule) (*Timing, error) {
	lat, err := e.compute(g, m, s)
	if err != nil {
		return nil, err
	}
	n := g.NumOps()
	tm := &Timing{
		Latency:     lat,
		StageStart:  make([][]units.Millis, len(s.GPUs)),
		StageFinish: make([][]units.Millis, len(s.GPUs)),
		OpStart:     make([]units.Millis, n),
		OpFinish:    make([]units.Millis, n),
		GPUOf:       make([]int, n),
	}
	copy(tm.GPUOf, e.place[:n])
	id := 0
	for gi := range s.GPUs {
		tm.StageStart[gi] = make([]units.Millis, len(s.GPUs[gi].Stages))
		tm.StageFinish[gi] = make([]units.Millis, len(s.GPUs[gi].Stages))
		for j := range s.GPUs[gi].Stages {
			tm.StageStart[gi][j] = e.start[id]
			tm.StageFinish[gi][j] = e.finish[id]
			for _, op := range s.GPUs[gi].Stages[j].Ops {
				tm.OpStart[op] = e.start[id]
				tm.OpFinish[op] = e.finish[id]
			}
			id++
		}
	}
	return tm, nil
}

// growSlice returns buf resized to n, reusing its backing array when
// large enough. Contents are unspecified. Fresh storage is exact-size:
// a one-shot evaluation pays for precisely what it touches. Callers
// that grow a little on every round want growSliceCap instead.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growSliceCap is growSlice with 2x capacity headroom on fresh storage,
// for arrays that grow a little on every round — the incremental
// evaluator's commit splices extend their double-buffered arrays by one
// path per committed mapping, and exact-size storage would reallocate
// every one of them on every commit (the swapped-out buffer is always
// one path short).
func growSliceCap[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, 2*n)
	}
	return buf[:n]
}

// Validate checks the structural invariants of a schedule against its
// graph: every operator scheduled exactly once, no unknown IDs, and no
// empty stages. Dependency violations (intra-stage edges, cyclic stage
// graphs) are detected by Evaluate.
func Validate(g *graph.Graph, s *Schedule) error {
	var e Evaluator
	return e.validate(g, s)
}

// Result pairs a schedule with its evaluated latency; every scheduling
// algorithm in this repository returns one.
type Result struct {
	Schedule *Schedule
	Latency  units.Millis
}
