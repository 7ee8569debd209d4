package sched

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// IncrementalEvaluator answers "what would the latency be under this
// small edit?" without re-evaluating the whole schedule. A Rebase (or
// RebasePlacement) runs one full evaluation and keeps its stage DAG,
// durations and timeline as the baseline; each trial then re-propagates
// start times only through the edit's dirty frontier, reading every
// untouched stage's time straight from the baseline.
//
// Two edits are supported, matching the two hot trial loops of the HIOS
// schedulers:
//
//   - TrialFuse (after Rebase): Algorithm 2's candidate fusion — merge
//     stages si..si+p of one GPU into a single concurrent stage.
//   - TrialInsert (after RebasePlacement): Algorithm 1's trial mapping —
//     place a still-unscheduled operator path onto one GPU as singleton
//     stages interleaved by priority order. CommitInsert makes the
//     winning trial the new baseline by splicing the inserted stages
//     into the baseline structures in place, so HIOS-LP never pays a
//     full re-evaluation per committed path.
//
// Propagation is change-driven: starting from the stages whose
// dependency lists the edit touches, stages are recomputed in a
// topological order of the baseline stage DAG (one forward scan over the
// recorded order, skipping unstamped stages, ending when none pend),
// and a stage whose recomputed finish bit-equals its baseline finish
// stops the wave — its downstream would read inputs identical to the
// baseline and recompute to baseline values. Trial results are
// therefore bit-identical to running the full evaluator on the
// materialized candidate: the recomputed frontier uses exactly the
// candidate's dependency terms, floating-point max is associative and
// commutative without rounding, and per-GPU finish monotonicity
// (zero-lag sequential chains) lets the maximum over untouched stages
// be read off each GPU's last untouched stage. The differential
// property tests in incremental_test.go pin this.
//
// TrialInsert takes an upper bound (the incumbent best latency) and
// aborts early — returning ok == false — as soon as the candidate's
// latency provably meets or exceeds it: every propagated stage finish is
// a lower bound on the candidate's makespan. (A trial may also return
// ok == true with a latency at or above the bound; callers comparing
// lat < best treat both alike.)
//
// The zero value is ready to use. Not safe for concurrent use; give
// each goroutine its own.
type IncrementalEvaluator struct {
	ev Evaluator // full evaluator; its scratch arrays ARE the baseline snapshot

	g     *graph.Graph
	m     cost.Model
	nGPUs int
	ns    int // baseline stage count

	gpuLo    []int   // stage-id range of GPU gi: [gpuLo[gi], gpuLo[gi+1])
	stageGPU []int32 // stage id -> GPU

	// Schedule mode only (Rebase): transitive closure of the baseline
	// stage DAG as bitset rows, for O(p·ns/64) fusion cycle checks.
	cwords int
	sfwd   []uint64 // stage id -> bitset row of stages it reaches
	sbwd   []uint64 // stage id -> bitset row of stages reaching it
	rowBuf []uint64 // closure-remap scratch: one source row
	mrow   []uint64 // closure-remap scratch: the merged stage's two rows

	// Placement mode only (RebasePlacement).
	order   []graph.OpID // priority order the placement was built over
	pos     []int        // op -> index in order
	stageOp []graph.OpID // stage id -> its single op

	// Trial scratch, epoch-stamped so trials neither allocate nor clear.
	// Trials publish recomputed finishes straight into the baseline's
	// finish array — so the propagation's dependency scans are single
	// plain loads, with no stamp branches — and roll the touched entries
	// back before returning; tFinish keeps a copy of each recomputed
	// value for the commit splices, save the displaced baseline values
	// for the rollback, and touched lists the stamped ids.
	epoch   int64
	stamp   []int64        // stage id -> epoch when queued for recomputation
	tFinish []units.Millis // recomputed finish of a stamped stage
	save    []units.Millis // displaced baseline finish of a stamped stage
	touched []int32        // stamped stage ids of the current trial
	posBits []uint64       // queued scan positions (topo order or priority order)

	// Last TrialFuse's merged-stage duration and finish, read back by
	// CommitFuse's splice (valid under the trial's epoch).
	fuseDur    units.Millis
	fuseFinish units.Millis

	// TrialInsert scratch.
	opStamp    []int64        // op -> epoch when a member of the inserted set
	insIdxOf   []int32        // op -> index in the inserted set (valid under opStamp)
	insAfter   []int32        // inserted j -> existing stage it lands after (gpuLo[gi]-1 for none)
	insSeqPred []int32        // inserted j -> seq predecessor (-1, stage id, or ns+j')
	insFinish  []units.Millis // inserted j -> recomputed finish
	seqStamp   []int64        // stage id -> epoch when its seq-pred was substituted
	seqNew     []int32        // substituted seq-pred (an inserted id ns+j)
	extraStamp []int64        // stage id -> epoch when it has extra deps from inserted ops
	extraHead  []int32        // head of the stage's extra-dep list in the pools below
	extraFrom  []int32        // pool: dep source (inserted index)
	extraLag   []units.Millis // pool: dep lag
	extraNext  []int32        // pool: next list index, -1 ends

	// CommitInsert scratch: per-stage patch lists plus the double-buffered
	// baseline arrays the splice writes into (swapped with the
	// evaluator's on every commit).
	newOf    []int32 // old stage id -> new stage id
	insNew   []int32 // inserted j -> new stage id
	runStamp []int64 // stage id -> epoch when an inserted run lands right after it
	runHead  []int32 // first inserted index of that run
	asStamp  []int64 // stage id -> epoch when it gains succ edges to inserted stages
	asHead   []int32 // head of its added-successor list in the pools below
	asTo     []int32 // pool: added successor (inserted index)
	asNext   []int32 // pool: next list index, -1 ends
	depOff2  []int
	depFrom2 []int
	depLag2  []units.Millis
	succOff2 []int
	succTo2  []int
	dur2     []units.Millis
	finish2  []units.Millis
	seqPrev2 []int
	stageOp2 []graph.OpID
	one      [1]graph.OpID
}

// errTrialCycle reports that a trial fusion would deadlock: the merged
// stage lies on a directed cycle of the contracted stage graph. It
// matches the full evaluator's cycle error under errors.Is.
var errTrialCycle = fmt.Errorf("sched: trial fusion creates a stage-graph cycle: %w", graph.ErrCycle)

// errTrialDirectDep reports a direct data dependency between two
// operators of the trial-fused stage, which the full evaluator likewise
// rejects.
var errTrialDirectDep = errors.New("sched: trial-fused operators have a direct dependency")

// Rebase makes s the baseline for subsequent TrialFuse calls: one full
// evaluation whose timeline, stage DAG and durations the trials read
// from, plus the stage DAG's transitive closure for the fusion cycle
// checks. It returns the schedule's latency.
func (ie *IncrementalEvaluator) Rebase(g *graph.Graph, m cost.Model, s *Schedule) (units.Millis, error) {
	lat, err := ie.ev.Latency(g, m, s)
	if err != nil {
		return 0, err
	}
	ie.g, ie.m = g, m
	ie.nGPUs = len(s.GPUs)
	ie.gpuLo = growSlice(ie.gpuLo, ie.nGPUs+1)
	ns := 0
	for gi := range s.GPUs {
		ie.gpuLo[gi] = ns
		ns += len(s.GPUs[gi].Stages)
	}
	ie.gpuLo[ie.nGPUs] = ns
	ie.finishRebase(ns)
	ie.buildStageClosure()
	return lat, nil
}

// RebasePlacement makes the singleton-stage schedule implied by
// (nGPUs, order, place) the baseline for subsequent TrialInsert and
// CommitInsert calls, without materializing it (see
// Evaluator.LatencyFromPlacement). Operators with place < 0 are
// unscheduled. The order slice must stay unmodified while trials run
// against this baseline, and every data edge must point forward in it
// (guaranteed when it is a topological order, as descending priority is
// for positive operator times).
func (ie *IncrementalEvaluator) RebasePlacement(g *graph.Graph, m cost.Model, nGPUs int, order []graph.OpID, place []int) (units.Millis, error) {
	lat, err := ie.ev.LatencyFromPlacement(g, m, nGPUs, order, place)
	if err != nil {
		return 0, err
	}
	ie.g, ie.m = g, m
	ie.nGPUs = nGPUs
	ie.order = order
	n := g.NumOps()
	ie.pos = growSlice(ie.pos, n)
	for i, op := range order {
		ie.pos[op] = i
	}
	// Replay LatencyFromPlacement's stage-id assignment (GPU-major, then
	// priority order) to index the per-GPU id ranges and each singleton
	// stage's operator.
	ie.gpuLo = growSlice(ie.gpuLo, nGPUs+1)
	ie.stageOp = growSlice(ie.stageOp, n)
	ns := 0
	for gi := 0; gi < nGPUs; gi++ {
		ie.gpuLo[gi] = ns
		for _, op := range order {
			if place[op] == gi {
				ie.stageOp[ns] = op
				ns++
			}
		}
	}
	ie.gpuLo[nGPUs] = ns
	ie.finishRebase(ns)
	return lat, nil
}

// finishRebase sizes the trial scratch for ns baseline stages and
// records the per-stage GPU index.
func (ie *IncrementalEvaluator) finishRebase(ns int) {
	ie.ns = ns
	ie.stageGPU = growSliceCap(ie.stageGPU, ns)
	for gi := 0; gi < ie.nGPUs; gi++ {
		for id := ie.gpuLo[gi]; id < ie.gpuLo[gi+1]; id++ {
			ie.stageGPU[id] = int32(gi)
		}
	}
	ie.growStageStamps(ns)
	if ie.g != nil {
		n := ie.g.NumOps()
		ie.opStamp = growStamped(ie.opStamp, n)
		ie.insIdxOf = growSlice(ie.insIdxOf, n)
		ie.posBits = growSlice(ie.posBits, (n+63)/64) // ns <= n in both modes
	}
}

// growStageStamps sizes the epoch-stamped per-stage trial scratch. The
// arrays grow by one path per committed insertion, so fresh storage
// carries capacity headroom.
func (ie *IncrementalEvaluator) growStageStamps(ns int) {
	ie.stamp = growStamped(ie.stamp, ns)
	ie.tFinish = growSliceCap(ie.tFinish, ns)
	ie.save = growSliceCap(ie.save, ns)
	ie.seqStamp = growStamped(ie.seqStamp, ns)
	ie.seqNew = growSliceCap(ie.seqNew, ns)
	ie.extraStamp = growStamped(ie.extraStamp, ns)
	ie.extraHead = growSliceCap(ie.extraHead, ns)
	ie.runStamp = growStamped(ie.runStamp, ns)
	ie.runHead = growSliceCap(ie.runHead, ns)
	ie.asStamp = growStamped(ie.asStamp, ns)
	ie.asHead = growSliceCap(ie.asHead, ns)
}

// buildStageClosure computes forward and backward reachability bitsets
// over the baseline stage DAG with the usual word-parallel DP along the
// recorded topological order: O(E·ns/64) per Rebase, amortized across
// every TrialFuse cycle check against that baseline.
func (ie *IncrementalEvaluator) buildStageClosure() {
	e := &ie.ev
	ns := ie.ns
	w := (ns + 63) / 64
	ie.cwords = w
	ie.sfwd = growSlice(ie.sfwd, ns*w)
	ie.sbwd = growSlice(ie.sbwd, ns*w)
	for i := 0; i < ns*w; i++ {
		ie.sfwd[i] = 0
		ie.sbwd[i] = 0
	}
	for i := ns - 1; i >= 0; i-- {
		v := int(e.topoSeq[i])
		row := ie.sfwd[v*w : v*w+w]
		for k := e.succOff[v]; k < e.succOff[v+1]; k++ {
			t := e.succTo[k]
			row[t>>6] |= 1 << (uint(t) & 63)
			trow := ie.sfwd[t*w : t*w+w]
			for j := 0; j < w; j++ {
				row[j] |= trow[j]
			}
		}
	}
	for i := 0; i < ns; i++ {
		v := int(e.topoSeq[i])
		row := ie.sbwd[v*w : v*w+w]
		for k := e.depOff[v]; k < e.depOff[v+1]; k++ {
			s := e.depFrom[k]
			row[s>>6] |= 1 << (uint(s) & 63)
			srow := ie.sbwd[s*w : s*w+w]
			for j := 0; j < w; j++ {
				row[j] |= srow[j]
			}
		}
	}
}

// remapClosureRow rewrites one closure bitset row for the contraction of
// stage ids lo..hi into lo: bits below lo keep their place, bit lo
// becomes "any bit was set in [lo, hi]", and bits above hi shift down by
// p = hi-lo. It reports whether the row intersected the fused range.
// dst and src must not alias (rows move between strides in place, so the
// caller stages src through a scratch buffer).
func remapClosureRow(dst, src []uint64, lo, hi, p, w2 int) bool {
	loW := lo >> 6
	hit := false
	for wi := loW; wi <= hi>>6; wi++ {
		if src[wi]&rangeWordMask(wi, lo, hi) != 0 {
			hit = true
			break
		}
	}
	k, s := p>>6, uint(p&63)
	w := len(src)
	for wi := 0; wi < w2; wi++ {
		var sh uint64
		if wi+k < w {
			sh = src[wi+k] >> s
			if s != 0 && wi+k+1 < w {
				sh |= src[wi+k+1] << (64 - s)
			}
		}
		switch {
		case wi < loW:
			dst[wi] = src[wi]
		case wi > loW:
			dst[wi] = sh
		default:
			lowMask := uint64(1)<<(uint(lo)&63) - 1
			out := src[wi]&lowMask | sh&^lowMask
			out &^= 1 << (uint(lo) & 63)
			dst[wi] = out
		}
	}
	if hit {
		dst[loW] |= 1 << (uint(lo) & 63)
	}
	return hit
}

// remapStageClosure updates the stage-closure bitsets for the
// contraction of ids lo..hi into lo, in O(ns·w) word operations instead
// of re-running the O(E·w) DP. Contracted reachability decomposes as:
// s reaches t afterwards iff s reached t before, or s reached a member
// and a member reached t — so every row is bit-remapped (members
// collapse into bit lo, higher bits shift down) and rows that
// intersected the fused range additionally inherit the merged stage's
// row, itself the remapped union of the members' rows. The collapsed
// self-bit is cleared: the committed fusion passed the cycle check, so
// no external path re-enters the merged stage. ns is the stage count
// before the contraction.
func (ie *IncrementalEvaluator) remapStageClosure(ns, lo, hi, p int) {
	w := ie.cwords
	ns2 := ns - p
	w2 := (ns2 + 63) / 64
	loW := lo >> 6
	loBit := uint64(1) << (uint(lo) & 63)
	ie.rowBuf = growSlice(ie.rowBuf, w)
	ie.mrow = growSlice(ie.mrow, 2*w2)
	fwdM := ie.mrow[:w2]
	bwdM := ie.mrow[w2 : 2*w2]
	for j := 0; j < w2; j++ {
		fwdM[j] = 0
		bwdM[j] = 0
	}
	for id := lo; id <= hi; id++ {
		remapClosureRow(ie.rowBuf[:w2], ie.sfwd[id*w:id*w+w], lo, hi, p, w2)
		for j := 0; j < w2; j++ {
			fwdM[j] |= ie.rowBuf[j]
		}
		remapClosureRow(ie.rowBuf[:w2], ie.sbwd[id*w:id*w+w], lo, hi, p, w2)
		for j := 0; j < w2; j++ {
			bwdM[j] |= ie.rowBuf[j]
		}
	}
	fwdM[loW] &^= loBit
	bwdM[loW] &^= loBit

	// Rewrite every surviving row in ascending new id: writes at stride
	// w2 never pass the pending reads at stride w, and each source row
	// is staged through the scratch buffer because the two can overlap.
	x := 0
	for o := 0; o < ns; o++ {
		if o > lo && o <= hi {
			continue
		}
		if o == lo {
			copy(ie.sfwd[x*w2:x*w2+w2], fwdM)
			copy(ie.sbwd[x*w2:x*w2+w2], bwdM)
			x++
			continue
		}
		copy(ie.rowBuf[:w], ie.sfwd[o*w:o*w+w])
		if remapClosureRow(ie.sfwd[x*w2:x*w2+w2], ie.rowBuf[:w], lo, hi, p, w2) {
			row := ie.sfwd[x*w2 : x*w2+w2]
			for j := 0; j < w2; j++ {
				row[j] |= fwdM[j]
			}
		}
		copy(ie.rowBuf[:w], ie.sbwd[o*w:o*w+w])
		if remapClosureRow(ie.sbwd[x*w2:x*w2+w2], ie.rowBuf[:w], lo, hi, p, w2) {
			row := ie.sbwd[x*w2 : x*w2+w2]
			for j := 0; j < w2; j++ {
				row[j] |= bwdM[j]
			}
		}
		x++
	}
	ie.cwords = w2
}

// growStamped grows an epoch-stamp array. Fresh storage starts at
// epoch 0, which never matches a live epoch (bumpEpoch starts at 1 and
// only increments), so stale and fresh entries are equally dead.
func growStamped(buf []int64, n int) []int64 {
	if cap(buf) < n {
		nb := make([]int64, n, 2*n)
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

// bumpEpoch opens a new trial: all stamps from earlier trials die.
func (ie *IncrementalEvaluator) bumpEpoch() {
	ie.epoch++
}

// rangeWordMask returns the bits of 64-bit word wi that cover stage ids
// lo..hi inclusive.
func rangeWordMask(wi, lo, hi int) uint64 {
	base := wi << 6
	l, h := lo-base, hi-base
	if h < 0 || l > 63 {
		return 0
	}
	if l < 0 {
		l = 0
	}
	if h > 63 {
		h = 63
	}
	m := ^uint64(0) << uint(l)
	if h < 63 {
		m &= uint64(1)<<uint(h+1) - 1
	}
	return m
}

// rollbackFinish restores the baseline finish of every stage the trial
// overlaid: the stamped ids in touched, plus (in fuse mode) the fused
// range loDead..hiDead, which carried the merged finish.
func (ie *IncrementalEvaluator) rollbackFinish(loDead, hiDead int) {
	e := &ie.ev
	for _, t := range ie.touched {
		e.finish[t] = ie.save[t]
	}
	for id := loDead; id <= hiDead; id++ {
		e.finish[id] = ie.save[id]
	}
}

// cleanMax returns the maximum baseline finish over all stages the trial
// left untouched. Stage finish times are monotone along each GPU's stage
// list (consecutive stages are linked by zero-lag sequential edges), so
// each GPU contributes the finish of its highest-id unstamped stage; the
// walk back over stamped stages costs O(#stamped) overall. On editGPU
// (when >= 0), ids deadLo..deadHi — TrialFuse's fused range, which is
// neither stamped nor alive — are skipped too.
func (ie *IncrementalEvaluator) cleanMax(editGPU, deadLo, deadHi int) units.Millis {
	e := &ie.ev
	best := units.Millis(0)
	for gi := 0; gi < ie.nGPUs; gi++ {
		idx := ie.gpuLo[gi+1] - 1
		for idx >= ie.gpuLo[gi] {
			if gi == editGPU && idx >= deadLo && idx <= deadHi {
				idx = deadLo - 1
				continue
			}
			if ie.stamp[idx] == ie.epoch {
				idx--
				continue
			}
			if f := e.finish[idx]; f > best {
				best = f
			}
			break
		}
	}
	return best
}

// TrialFuse evaluates the candidate schedule obtained from the Rebase
// baseline by merging stages si..si+p of GPU gi into one concurrent
// stage holding members (the sorted union of their operators, exactly
// as the committed stage would store them). It returns the candidate's
// latency, or an error when the fusion is invalid (a direct dependency
// inside the merged stage, or a cycle through the contracted stage
// graph) — the same candidates, under the same error precedence, the
// full evaluator rejects.
func (ie *IncrementalEvaluator) TrialFuse(gi, si, p int, members []graph.OpID) (units.Millis, error) {
	e := &ie.ev
	lo := ie.gpuLo[gi] + si
	hi := lo + p
	ie.bumpEpoch()

	// Direct-dependency check: the fused ids carry exactly p internal
	// successor entries (their sequential chain); any extra one is a
	// data edge between two members, which the full evaluator rejects
	// before its cycle check.
	internal := 0
	for id := lo; id <= hi; id++ {
		for k := e.succOff[id]; k < e.succOff[id+1]; k++ {
			if t := e.succTo[k]; t >= lo && t <= hi {
				internal++
			}
		}
	}
	if internal > p {
		return 0, errTrialDirectDep
	}

	// Cycle check: every cycle the contraction can create passes
	// through the merged stage (all other edges exist in the acyclic
	// baseline), so a cycle exists iff some stage outside the fused
	// range is both reachable from a member and reaches a member —
	// one masked AND over the closure rows.
	w := ie.cwords
	for wi := 0; wi < w; wi++ {
		var u, d uint64
		for id := lo; id <= hi; id++ {
			u |= ie.sfwd[id*w+wi]
			d |= ie.sbwd[id*w+wi]
		}
		if u&d&^rangeWordMask(wi, lo, hi) != 0 {
			return 0, errTrialCycle
		}
	}

	// Merged stage duration and start time. Its dependencies are the
	// union of the members' dependencies minus intra-merge edges; every
	// such dependency keeps its baseline finish (an edited ancestor
	// would close a cycle, excluded above), and lags are unchanged
	// because fusing within one GPU moves no operator.
	durM := ie.m.StageTime(members)
	startM := units.Millis(0)
	for id := lo; id <= hi; id++ {
		for k := e.depOff[id]; k < e.depOff[id+1]; k++ {
			src := e.depFrom[k]
			if src >= lo && src <= hi {
				continue
			}
			if t := e.finish[src] + e.depLag[k]; t > startM {
				startM = t
			}
		}
	}
	finishM := startM + durM
	ie.fuseDur, ie.fuseFinish = durM, finishM
	latMax := finishM

	// Seed the frontier: every stage depending on a member reads the
	// merged finish instead of per-member finishes, so it must be
	// recomputed. From there, propagation is change-driven along the
	// baseline's recorded topological order, tracked as a consumable
	// bitset over topo positions: stamping a stage sets its position
	// bit, and the scan walks set bits in ascending order. Newly
	// stamped stages always sit at strictly later topo positions than
	// their stamper, so every queued stage is visited after all of its
	// inputs are final — recomputed finishes are published straight
	// into the baseline array (members carry the merged finish) and
	// rolled back before returning, which keeps the dependency scan a
	// single load per edge. A stage whose recomputed finish bit-equals
	// its baseline finish stops the wave.
	ie.touched = ie.touched[:0]
	for id := lo; id <= hi; id++ {
		ie.save[id] = e.finish[id]
		e.finish[id] = finishM
	}
	clear(ie.posBits[:(ie.ns+63)/64])
	pending := 0
	for id := lo; id <= hi; id++ {
		for k := e.succOff[id]; k < e.succOff[id+1]; k++ {
			t := e.succTo[k]
			if t >= lo && t <= hi {
				continue
			}
			if ie.stamp[t] != ie.epoch {
				ie.stamp[t] = ie.epoch
				ie.save[t] = e.finish[t]
				ie.touched = append(ie.touched, int32(t))
				p := int(e.topoPos[t])
				ie.posBits[p>>6] |= 1 << (uint(p) & 63)
				pending++
			}
		}
	}
	for wi := 0; pending > 0; wi++ {
		for ie.posBits[wi] != 0 {
			b := bits.TrailingZeros64(ie.posBits[wi])
			ie.posBits[wi] &^= 1 << uint(b)
			x := int(e.topoSeq[wi<<6|b])
			pending--
			st := units.Millis(0)
			for k := e.depOff[x]; k < e.depOff[x+1]; k++ {
				if t := e.finish[e.depFrom[k]] + e.depLag[k]; t > st {
					st = t
				}
			}
			fin := st + e.dur[x]
			ie.tFinish[x] = fin
			if fin > latMax {
				latMax = fin
			}
			if fin != e.finish[x] { //lint:floatexact change-stop rule: bit-equal finish ends the wave
				e.finish[x] = fin
				for k := e.succOff[x]; k < e.succOff[x+1]; k++ {
					t := e.succTo[k]
					if ie.stamp[t] != ie.epoch {
						ie.stamp[t] = ie.epoch
						ie.save[t] = e.finish[t]
						ie.touched = append(ie.touched, int32(t))
						p := int(e.topoPos[t])
						ie.posBits[p>>6] |= 1 << (uint(p) & 63)
						pending++
					}
				}
			}
		}
	}
	if c := ie.cleanMax(gi, lo, hi); c > latMax {
		latMax = c
	}
	ie.rollbackFinish(lo, hi)
	return latMax, nil
}

// CommitFuse makes the TrialFuse candidate (gi, si, p, members) the new
// baseline and returns its latency. It reruns the trial and contracts
// the fused range out of the baseline CSR in place —
// remapping stage ids, dropping the p intra-range sequential edges,
// merging the trial's recomputed times — then refreshes the recorded
// topological order with a plain Kahn sweep and rebuilds the stage
// closure. Compared to a full Rebase this skips schedule validation,
// the graph-edge walk with its communication-cost lookups, and every
// per-stage duration model call: fusing within one GPU moves no
// operator, so all surviving lags and durations are the baseline's own
// values, and the merged stage's duration was already computed by the
// trial. The spliced baseline is bit-identical to a Rebase of the
// materialized schedule wherever it is read: dependency rows keep one
// entry per graph edge with exact lags (entry order never influences a
// max), finishes come from the trial, and only e.start and the
// operator maps go stale — neither is read before the next full
// evaluation.
func (ie *IncrementalEvaluator) CommitFuse(gi, si, p int, members []graph.OpID) (units.Millis, error) {
	lat, err := ie.TrialFuse(gi, si, p, members)
	if err != nil {
		return 0, err
	}
	if err := ie.applyFuse(gi, si, p); err != nil {
		return 0, err
	}
	return lat, nil
}

// applyFuse splices the edit state left by a completed TrialFuse into
// the baseline: stages lo..hi collapse into one stage at id lo and every
// later id shifts down by p. Runs under the same epoch as the trial.
// The contraction is fully in place: ids only move down and rows only
// shrink (exactly the p intra-range sequential edges disappear; the
// direct-dependency check rejected any data edge between members), so
// compaction writes never pass their reads, and rows of ids below the
// fused range keep their offsets — only entry values pointing at or
// beyond the range are rewritten.
func (ie *IncrementalEvaluator) applyFuse(gi, si, p int) error {
	e := &ie.ev
	lo := ie.gpuLo[gi] + si
	hi := lo + p
	ns := ie.ns
	ns2 := ns - p

	// Prefix ids (< lo): offsets, lags, durations and sequential links
	// are untouched (a same-GPU predecessor always has a smaller id);
	// remap entry values and merge stamped finishes.
	for k := 0; k < e.depOff[lo]; k++ {
		if src := e.depFrom[k]; src > hi {
			e.depFrom[k] = src - p
		} else if src >= lo {
			e.depFrom[k] = lo
		}
	}
	for k := 0; k < e.succOff[lo]; k++ {
		if t := e.succTo[k]; t > hi {
			e.succTo[k] = t - p
		} else if t >= lo {
			e.succTo[k] = lo
		}
	}
	for o := 0; o < lo; o++ {
		if ie.stamp[o] == ie.epoch {
			e.finish[o] = ie.tFinish[o]
		}
	}

	// From lo on, compact: the member rows lo..hi are contiguous in the
	// CSR pools and collapse into the merged row at new id lo; later
	// rows shift down. Row bounds are read into locals before the
	// offset slot is overwritten (only the x == o == lo iteration would
	// otherwise clobber its own read).
	nd, nsuc := e.depOff[lo], e.succOff[lo]
	x := lo
	for o := lo; o < ns; o++ {
		if o > lo && o <= hi {
			continue
		}
		last := o
		if o == lo {
			last = hi
		}
		dStart, dEnd := e.depOff[o], e.depOff[last+1]
		sStart, sEnd := e.succOff[o], e.succOff[last+1]
		e.depOff[x] = nd
		e.succOff[x] = nsuc
		for k := dStart; k < dEnd; k++ {
			src := e.depFrom[k]
			if src >= lo && src <= hi {
				if o == lo {
					continue // intra-range sequential edge
				}
				src = lo
			} else if src > hi {
				src -= p
			}
			e.depFrom[nd] = src
			e.depLag[nd] = e.depLag[k]
			nd++
		}
		for k := sStart; k < sEnd; k++ {
			t := e.succTo[k]
			if t >= lo && t <= hi {
				if o == lo {
					continue
				}
				t = lo
			} else if t > hi {
				t -= p
			}
			e.succTo[nsuc] = t
			nsuc++
		}
		if o == lo {
			e.dur[x] = ie.fuseDur
			e.finish[x] = ie.fuseFinish
			// e.seqPrev[lo] already names the stage before the range.
		} else {
			e.dur[x] = e.dur[o]
			if ie.stamp[o] == ie.epoch {
				e.finish[x] = ie.tFinish[o]
			} else {
				e.finish[x] = e.finish[o]
			}
			if sp := e.seqPrev[o]; sp > hi {
				e.seqPrev[x] = sp - p
			} else if sp >= lo {
				e.seqPrev[x] = lo // only hi+1's chain edge points into the range
			} else {
				e.seqPrev[x] = sp
			}
		}
		x++
	}
	e.depOff[ns2] = nd
	e.succOff[ns2] = nsuc

	for g2 := gi + 1; g2 <= ie.nGPUs; g2++ {
		ie.gpuLo[g2] -= p
	}
	ie.ns = ns2
	for id := lo; id < ns2; id++ {
		ie.stageGPU[id] = ie.stageGPU[id+p]
	}
	ie.stageGPU = ie.stageGPU[:ns2]
	ie.growStageStamps(ns2)

	// Refresh the recorded topological order with a Kahn sweep over the
	// contracted DAG — pure integer work, no model calls. The committed
	// fusion passed the trial's cycle check, so the sweep must cover
	// every stage; a shortfall would mean the splice corrupted the DAG.
	e.indeg = growSlice(e.indeg, ns2)
	e.topoSeq = growSlice(e.topoSeq, ns2)
	e.topoPos = growSlice(e.topoPos, ns2)
	e.ready = e.ready[:0]
	for id := 0; id < ns2; id++ {
		e.indeg[id] = e.depOff[id+1] - e.depOff[id]
		if e.indeg[id] == 0 {
			e.ready = append(e.ready, id)
		}
	}
	visited := 0
	for len(e.ready) > 0 {
		id := e.ready[len(e.ready)-1]
		e.ready = e.ready[:len(e.ready)-1]
		e.topoSeq[visited] = int32(id)
		e.topoPos[id] = int32(visited)
		visited++
		for k := e.succOff[id]; k < e.succOff[id+1]; k++ {
			t := e.succTo[k]
			e.indeg[t]--
			if e.indeg[t] == 0 {
				e.ready = append(e.ready, t)
			}
		}
	}
	if visited != ns2 {
		return fmt.Errorf("sched: committed fusion left a cyclic stage graph: %w", graph.ErrCycle)
	}
	ie.remapStageClosure(ns, lo, hi, p)
	return nil
}

// TrialInsert evaluates the placement obtained from the RebasePlacement
// baseline by scheduling ops onto GPU gi as singleton stages interleaved
// into the GPU's sequence by priority order — exactly what
// LatencyFromPlacement computes after setting place[op] = gi for each.
// ops must be sorted by ascending position in the baseline's order and
// contain only operators unscheduled in the baseline. It returns the
// candidate's latency, or ok == false when the early-exit bound proved
// the candidate cannot beat bound.
//
// Placement-mode stage graphs cannot cycle — every dependency edge,
// sequential or data, points forward in the priority order — so unlike
// TrialFuse there is no error case, and the priority position replaces
// the recorded topological order as the propagation key. A completed
// trial leaves its full edit state (stamps, substitutions,
// extra-dependency pools, recomputed times) for CommitInsert's splice.
func (ie *IncrementalEvaluator) TrialInsert(gi int, ops []graph.OpID, bound units.Millis) (units.Millis, bool) {
	e := &ie.ev
	g, m := ie.g, ie.m
	k := len(ops)
	ns := ie.ns
	glo, ghi := ie.gpuLo[gi], ie.gpuLo[gi+1]
	ie.bumpEpoch()
	ie.touched = ie.touched[:0]
	ie.insAfter = growSlice(ie.insAfter, k)
	ie.insSeqPred = growSlice(ie.insSeqPred, k)
	ie.insFinish = growSlice(ie.insFinish, k)
	ie.extraFrom = ie.extraFrom[:0]
	ie.extraLag = ie.extraLag[:0]
	ie.extraNext = ie.extraNext[:0]
	// Queued work is a consumable bitset over priority positions:
	// inserted ops and stamped baseline stages set their position bit,
	// and the processing scan below walks set bits in ascending order.
	clear(ie.posBits[:(g.NumOps()+63)/64])
	for j, op := range ops {
		ie.opStamp[op] = ie.epoch
		ie.insIdxOf[op] = int32(j)
		p := ie.pos[op]
		ie.posBits[p>>6] |= 1 << (uint(p) & 63)
	}

	// Insertion points by binary search: GPU gi's stage ids ascend in
	// priority position, so each inserted op lands after the last
	// existing stage with a smaller position. Consecutive inserted ops
	// sharing an insertion point form a run chained among themselves;
	// the first existing stage after each run has its sequential
	// predecessor substituted by the run's last op and seeds the
	// frontier (its dependency inputs changed).
	for j := 0; j < k; j++ {
		pj := ie.pos[ops[j]]
		a, b := glo, ghi
		for a < b {
			mid := int(uint(a+b) >> 1)
			if ie.pos[ie.stageOp[mid]] < pj {
				a = mid + 1
			} else {
				b = mid
			}
		}
		ie.insAfter[j] = int32(a - 1)
		switch {
		case j > 0 && ie.insAfter[j-1] == int32(a-1):
			ie.insSeqPred[j] = int32(ns + j - 1)
		case a-1 >= glo:
			ie.insSeqPred[j] = int32(a - 1)
		default:
			ie.insSeqPred[j] = -1
		}
	}
	pending := 0
	for j := 0; j < k; j++ {
		if j+1 < k && ie.insAfter[j+1] == ie.insAfter[j] {
			continue // not the last op of its run
		}
		if nxt := int(ie.insAfter[j]) + 1; nxt < ghi {
			ie.seqStamp[nxt] = ie.epoch
			ie.seqNew[nxt] = int32(ns + j)
			if ie.stamp[nxt] != ie.epoch {
				ie.stamp[nxt] = ie.epoch
				ie.save[nxt] = e.finish[nxt]
				ie.touched = append(ie.touched, int32(nxt))
				p := ie.pos[ie.stageOp[nxt]]
				ie.posBits[p>>6] |= 1 << (uint(p) & 63)
				pending++
			}
		}
	}

	// New data edges from inserted ops to already-scheduled stages seed
	// the frontier as epoch-stamped extra-dependency lists.
	for j := 0; j < k; j++ {
		u := ops[j]
		for i := 0; i < g.OutDegree(u); i++ {
			to, _ := g.SuccAt(u, i)
			if ie.opStamp[to] == ie.epoch {
				continue // inserted->inserted: handled from the target's side
			}
			sv := e.opStage[to]
			if sv < 0 {
				continue // unscheduled target: inactive under partial evaluation
			}
			if ie.extraStamp[sv] != ie.epoch {
				ie.extraStamp[sv] = ie.epoch
				ie.extraHead[sv] = -1
			}
			ie.extraFrom = append(ie.extraFrom, int32(j))
			ie.extraLag = append(ie.extraLag, cost.CommBetween(m, u, to, gi, e.place[to]))
			ie.extraNext = append(ie.extraNext, ie.extraHead[sv])
			ie.extraHead[sv] = int32(len(ie.extraFrom) - 1)
			if ie.stamp[sv] != ie.epoch {
				ie.stamp[sv] = ie.epoch
				ie.save[sv] = e.finish[sv]
				ie.touched = append(ie.touched, int32(sv))
				p := ie.pos[ie.stageOp[sv]]
				ie.posBits[p>>6] |= 1 << (uint(p) & 63)
				pending++
			}
		}
	}

	// Process queued baseline stages and inserted stages in ascending
	// priority position by walking the set bits: every dependency of
	// either kind points backward in that order and newly queued stages
	// always sit strictly later than their stamper, so each visited
	// stage's inputs are final. The scan ends once every inserted stage
	// is placed and no stamped stage is pending. Baseline stages with
	// an unchanged recomputed finish stop the propagation; inserted
	// stages never stamp at all — their effects on existing stages are
	// fully seeded above.
	latMax := units.Millis(0)
	ij := 0
	wi := 0
	if k > 0 {
		wi = ie.pos[ops[0]] >> 6
	}
	for ; pending > 0 || ij < k; wi++ {
		for ie.posBits[wi] != 0 {
			b := bits.TrailingZeros64(ie.posBits[wi])
			ie.posBits[wi] &^= 1 << uint(b)
			op := ie.order[wi<<6|b]
			var fin units.Millis
			if ie.opStamp[op] == ie.epoch {
				fin = ie.recomputeInserted(ij, gi, ops)
				ie.insFinish[ij] = fin
				ij++
			} else {
				x := e.opStage[op]
				pending--
				fin = ie.recomputeExisting(x)
				ie.tFinish[x] = fin
				if fin != e.finish[x] { //lint:floatexact change-stop rule: bit-equal finish ends the wave
					e.finish[x] = fin
					for kk := e.succOff[x]; kk < e.succOff[x+1]; kk++ {
						if t := e.succTo[kk]; ie.stamp[t] != ie.epoch {
							ie.stamp[t] = ie.epoch
							ie.save[t] = e.finish[t]
							ie.touched = append(ie.touched, int32(t))
							p := ie.pos[ie.stageOp[t]]
							ie.posBits[p>>6] |= 1 << (uint(p) & 63)
							pending++
						}
					}
				}
			}
			if fin > latMax {
				latMax = fin
			}
			if fin >= bound {
				ie.rollbackFinish(0, -1)
				return 0, false
			}
		}
	}
	if c := ie.cleanMax(-1, 0, -1); c > latMax {
		latMax = c
	}
	ie.rollbackFinish(0, -1)
	return latMax, true
}

// recomputeExisting returns the trial finish time of queued baseline
// stage x: its baseline dependency list with the sequential edge
// substituted when an inserted run now precedes it, plus the trial's
// extra dependencies from inserted operators.
func (ie *IncrementalEvaluator) recomputeExisting(x int) units.Millis {
	e := &ie.ev
	st := units.Millis(0)
	kk := e.depOff[x]
	if ie.seqStamp[x] == ie.epoch {
		// Zero-lag sequential edge from the last inserted stage of the
		// run before x; x's baseline sequential dependency (the first
		// entry of its list, when it has one) is replaced by it.
		st = ie.insFinish[int(ie.seqNew[x])-ie.ns]
		if e.seqPrev[x] >= 0 {
			kk++
		}
	}
	for ; kk < e.depOff[x+1]; kk++ {
		// Stamped sources have already published their recomputed finish
		// into e.finish (they precede x in priority order), so one plain
		// load covers both the trial overlay and the baseline.
		if t := e.finish[e.depFrom[kk]] + e.depLag[kk]; t > st {
			st = t
		}
	}
	if ie.extraStamp[x] == ie.epoch {
		for idx := ie.extraHead[x]; idx >= 0; idx = ie.extraNext[idx] {
			if t := ie.insFinish[ie.extraFrom[idx]] + ie.extraLag[idx]; t > st {
				st = t
			}
		}
	}
	return st + e.dur[x]
}

// recomputeInserted returns the trial finish time of inserted stage j on
// GPU gi: its sequential predecessor in the merged chain plus its
// operator's data dependencies — inserted inputs read from insFinish,
// existing inputs straight from e.finish (stamped ones have already
// published their trial value there).
func (ie *IncrementalEvaluator) recomputeInserted(j, gi int, ops []graph.OpID) units.Millis {
	e := &ie.ev
	g, m := ie.g, ie.m
	v := ops[j]
	st := units.Millis(0)
	if sp := ie.insSeqPred[j]; sp >= 0 {
		if sp >= int32(ie.ns) {
			st = ie.insFinish[int(sp)-ie.ns]
		} else {
			st = e.finish[sp]
		}
	}
	for i := 0; i < g.InDegree(v); i++ {
		u, _ := g.PredAt(v, i)
		var f units.Millis
		var gu int
		if ie.opStamp[u] == ie.epoch {
			f = ie.insFinish[ie.insIdxOf[u]]
			gu = gi
		} else {
			su := e.opStage[u]
			if su < 0 {
				continue // unscheduled input: inactive under partial evaluation
			}
			f = e.finish[su]
			gu = e.place[u]
		}
		if t := f + cost.CommBetween(m, u, v, gu, gi); t > st {
			st = t
		}
	}
	ie.one[0] = v
	return st + m.StageTime(ie.one[:1])
}

// CommitInsert makes the TrialInsert candidate (gi, ops) the new
// baseline and returns its latency. It reruns the trial without a bound
// and splices the inserted stages into the baseline structures in
// place — renumbering stage ids, rewriting the CSR stage DAG, and
// merging the trial's recomputed times — instead of re-evaluating the
// whole placement. The spliced baseline is bit-identical to what a
// fresh RebasePlacement would rebuild where it matters: copied rows
// keep their exact lags, new rows use the same cost-model calls the
// full evaluation would make, every dependency row still leads with its
// sequential edge, and dependency-entry order beyond that never
// influences a max.
func (ie *IncrementalEvaluator) CommitInsert(gi int, ops []graph.OpID) units.Millis {
	lat, _ := ie.TrialInsert(gi, ops, units.Millis(math.Inf(1)))
	ie.applyInsert(gi, ops)
	return lat
}

// applyInsert splices the edit state left by TrialInsert into the
// baseline. Runs under the same epoch as the trial.
func (ie *IncrementalEvaluator) applyInsert(gi int, ops []graph.OpID) {
	e := &ie.ev
	g, m := ie.g, ie.m
	k := len(ops)
	ns := ie.ns
	ns2 := ns + k
	glo, ghi := ie.gpuLo[gi], ie.gpuLo[gi+1]

	// Stage-id renumbering: ids stay GPU-major and position-minor, so
	// GPU gi's ids open gaps at the insertion points and later GPUs
	// shift by k.
	ie.newOf = growSliceCap(ie.newOf, ns)
	ie.insNew = growSliceCap(ie.insNew, k)
	for o := 0; o < glo; o++ {
		ie.newOf[o] = int32(o)
	}
	shift, j := 0, 0
	for o := glo; o < ghi; o++ {
		for j < k && int(ie.insAfter[j]) < o {
			ie.insNew[j] = int32(o + shift)
			shift++
			j++
		}
		ie.newOf[o] = int32(o + shift)
	}
	for ; j < k; j++ {
		ie.insNew[j] = int32(ghi + shift)
		shift++
	}
	for o := ghi; o < ns; o++ {
		ie.newOf[o] = int32(o + k)
	}

	// Mark run heads (the existing stage each run hangs off, if any)
	// and collect the successor edges existing stages gain toward
	// inserted ops, as epoch-stamped lists.
	ie.asTo = ie.asTo[:0]
	ie.asNext = ie.asNext[:0]
	for j := 0; j < k; j++ {
		if (j == 0 || ie.insAfter[j] != ie.insAfter[j-1]) && int(ie.insAfter[j]) >= glo {
			ie.runStamp[ie.insAfter[j]] = ie.epoch
			ie.runHead[ie.insAfter[j]] = int32(j)
		}
		v := ops[j]
		for i := 0; i < g.InDegree(v); i++ {
			u, _ := g.PredAt(v, i)
			if ie.opStamp[u] == ie.epoch {
				continue
			}
			su := e.opStage[u]
			if su < 0 {
				continue
			}
			if ie.asStamp[su] != ie.epoch {
				ie.asStamp[su] = ie.epoch
				ie.asHead[su] = -1
			}
			ie.asTo = append(ie.asTo, int32(j))
			ie.asNext = append(ie.asNext, ie.asHead[su])
			ie.asHead[su] = int32(len(ie.asTo) - 1)
		}
	}

	// Counting pass: dependency and successor row sizes per new id,
	// then in-place prefix sums.
	ie.depOff2 = growSliceCap(ie.depOff2, ns2+1)
	ie.succOff2 = growSliceCap(ie.succOff2, ns2+1)
	for o := 0; o < ns; o++ {
		x := int(ie.newOf[o])
		dc := e.depOff[o+1] - e.depOff[o]
		if ie.seqStamp[o] == ie.epoch && e.seqPrev[o] < 0 {
			dc++ // gains a sequential edge it did not have
		}
		if ie.extraStamp[o] == ie.epoch {
			for idx := ie.extraHead[o]; idx >= 0; idx = ie.extraNext[idx] {
				dc++
			}
		}
		sc := e.succOff[o+1] - e.succOff[o]
		if ie.runStamp[o] == ie.epoch && !ie.hasSeqSucc(o) {
			sc++ // tail of GPU gi gains a sequential successor
		}
		if ie.asStamp[o] == ie.epoch {
			for idx := ie.asHead[o]; idx >= 0; idx = ie.asNext[idx] {
				sc++
			}
		}
		ie.depOff2[x] = dc
		ie.succOff2[x] = sc
	}
	for j := 0; j < k; j++ {
		x := int(ie.insNew[j])
		v := ops[j]
		dc := 0
		if ie.insSeqPred[j] >= 0 {
			dc++
		}
		sc := 0
		if (j+1 < k && ie.insAfter[j+1] == ie.insAfter[j]) || int(ie.insAfter[j])+1 < ghi {
			sc++ // sequential successor: next of its run, or the stage after it
		}
		for i := 0; i < g.InDegree(v); i++ {
			u, _ := g.PredAt(v, i)
			if ie.opStamp[u] == ie.epoch || e.opStage[u] >= 0 {
				dc++
			}
		}
		for i := 0; i < g.OutDegree(v); i++ {
			t, _ := g.SuccAt(v, i)
			if ie.opStamp[t] == ie.epoch || e.opStage[t] >= 0 {
				sc++
			}
		}
		ie.depOff2[x] = dc
		ie.succOff2[x] = sc
	}
	nd, nsuc := 0, 0
	for x := 0; x < ns2; x++ {
		dc, sc := ie.depOff2[x], ie.succOff2[x]
		ie.depOff2[x] = nd
		ie.succOff2[x] = nsuc
		nd += dc
		nsuc += sc
	}
	ie.depOff2[ns2] = nd
	ie.succOff2[ns2] = nsuc
	ie.depFrom2 = growSliceCap(ie.depFrom2, nd)
	ie.depLag2 = growSliceCap(ie.depLag2, nd)
	ie.succTo2 = growSliceCap(ie.succTo2, nsuc)
	ie.dur2 = growSliceCap(ie.dur2, ns2)
	ie.finish2 = growSliceCap(ie.finish2, ns2)
	ie.seqPrev2 = growSliceCap(ie.seqPrev2, ns2)
	ie.stageOp2 = growSliceCap(ie.stageOp2, ns2)

	// Fill pass. Every dependency row leads with its sequential edge
	// and every successor row with its sequential successor (matching
	// finishCompute's fill order, which the trial recomputations and
	// this splice itself key on).
	for o := 0; o < ns; o++ {
		x := int(ie.newOf[o])
		dc := ie.depOff2[x]
		kk := e.depOff[o]
		if ie.seqStamp[o] == ie.epoch {
			sp := int(ie.insNew[int(ie.seqNew[o])-ns])
			ie.depFrom2[dc] = sp
			ie.depLag2[dc] = 0
			dc++
			ie.seqPrev2[x] = sp
			if e.seqPrev[o] >= 0 {
				kk++ // baseline sequential entry replaced
			}
		} else if sp := e.seqPrev[o]; sp >= 0 {
			ie.seqPrev2[x] = int(ie.newOf[sp])
		} else {
			ie.seqPrev2[x] = -1
		}
		for ; kk < e.depOff[o+1]; kk++ {
			ie.depFrom2[dc] = int(ie.newOf[e.depFrom[kk]])
			ie.depLag2[dc] = e.depLag[kk]
			dc++
		}
		if ie.extraStamp[o] == ie.epoch {
			for idx := ie.extraHead[o]; idx >= 0; idx = ie.extraNext[idx] {
				ie.depFrom2[dc] = int(ie.insNew[ie.extraFrom[idx]])
				ie.depLag2[dc] = ie.extraLag[idx]
				dc++
			}
		}
		sc := ie.succOff2[x]
		kk = e.succOff[o]
		if ie.runStamp[o] == ie.epoch {
			ie.succTo2[sc] = int(ie.insNew[ie.runHead[o]])
			sc++
			if ie.hasSeqSucc(o) {
				kk++ // baseline sequential successor entry replaced
			}
		}
		for ; kk < e.succOff[o+1]; kk++ {
			ie.succTo2[sc] = int(ie.newOf[e.succTo[kk]])
			sc++
		}
		if ie.asStamp[o] == ie.epoch {
			for idx := ie.asHead[o]; idx >= 0; idx = ie.asNext[idx] {
				ie.succTo2[sc] = int(ie.insNew[ie.asTo[idx]])
				sc++
			}
		}
		ie.dur2[x] = e.dur[o]
		if ie.stamp[o] == ie.epoch {
			ie.finish2[x] = ie.tFinish[o]
		} else {
			ie.finish2[x] = e.finish[o]
		}
		ie.stageOp2[x] = ie.stageOp[o]
	}
	for j := 0; j < k; j++ {
		x := int(ie.insNew[j])
		v := ops[j]
		dc := ie.depOff2[x]
		switch sp := ie.insSeqPred[j]; {
		case sp >= int32(ns):
			ie.depFrom2[dc] = int(ie.insNew[int(sp)-ns])
			ie.depLag2[dc] = 0
			ie.seqPrev2[x] = ie.depFrom2[dc]
			dc++
		case sp >= 0:
			ie.depFrom2[dc] = int(ie.newOf[sp])
			ie.depLag2[dc] = 0
			ie.seqPrev2[x] = ie.depFrom2[dc]
			dc++
		default:
			ie.seqPrev2[x] = -1
		}
		for i := 0; i < g.InDegree(v); i++ {
			u, _ := g.PredAt(v, i)
			if ie.opStamp[u] == ie.epoch {
				ie.depFrom2[dc] = int(ie.insNew[ie.insIdxOf[u]])
				ie.depLag2[dc] = cost.CommBetween(m, u, v, gi, gi)
				dc++
			} else if su := e.opStage[u]; su >= 0 {
				ie.depFrom2[dc] = int(ie.newOf[su])
				ie.depLag2[dc] = cost.CommBetween(m, u, v, e.place[u], gi)
				dc++
			}
		}
		sc := ie.succOff2[x]
		if j+1 < k && ie.insAfter[j+1] == ie.insAfter[j] {
			ie.succTo2[sc] = int(ie.insNew[j+1])
			sc++
		} else if nxt := int(ie.insAfter[j]) + 1; nxt < ghi {
			ie.succTo2[sc] = int(ie.newOf[nxt])
			sc++
		}
		for i := 0; i < g.OutDegree(v); i++ {
			t, _ := g.SuccAt(v, i)
			if ie.opStamp[t] == ie.epoch {
				ie.succTo2[sc] = int(ie.insNew[ie.insIdxOf[t]])
				sc++
			} else if st := e.opStage[t]; st >= 0 {
				ie.succTo2[sc] = int(ie.newOf[st])
				sc++
			}
		}
		ie.one[0] = v
		ie.dur2[x] = m.StageTime(ie.one[:1])
		ie.finish2[x] = ie.insFinish[j]
		ie.stageOp2[x] = v
	}

	// Swap the rebuilt arrays in (the displaced ones become the next
	// commit's scratch) and refresh the operator maps and per-GPU
	// index. e.start and the recorded topo order go stale, but neither
	// is read between here and the next full evaluation.
	e.depOff, ie.depOff2 = ie.depOff2, e.depOff
	e.depFrom, ie.depFrom2 = ie.depFrom2, e.depFrom
	e.depLag, ie.depLag2 = ie.depLag2, e.depLag
	e.succOff, ie.succOff2 = ie.succOff2, e.succOff
	e.succTo, ie.succTo2 = ie.succTo2, e.succTo
	e.dur, ie.dur2 = ie.dur2, e.dur
	e.finish, ie.finish2 = ie.finish2, e.finish
	e.seqPrev, ie.seqPrev2 = ie.seqPrev2, e.seqPrev
	ie.stageOp, ie.stageOp2 = ie.stageOp2, ie.stageOp
	for x := 0; x < ns2; x++ {
		e.opStage[ie.stageOp[x]] = x
	}
	for _, v := range ops {
		e.place[v] = gi
	}
	for g2 := gi + 1; g2 <= ie.nGPUs; g2++ {
		ie.gpuLo[g2] += k
	}
	ie.ns = ns2
	ie.stageGPU = growSliceCap(ie.stageGPU, ns2)
	for g2 := 0; g2 < ie.nGPUs; g2++ {
		for id := ie.gpuLo[g2]; id < ie.gpuLo[g2+1]; id++ {
			ie.stageGPU[id] = int32(g2)
		}
	}
	ie.growStageStamps(ns2)
}

// hasSeqSucc reports whether baseline stage o has a same-GPU successor
// stage (and therefore leads its successor row with that edge).
func (ie *IncrementalEvaluator) hasSeqSucc(o int) bool {
	return o+1 < ie.gpuLo[ie.stageGPU[o]+1]
}
