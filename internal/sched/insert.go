package sched

import (
	"math"
	"math/bits"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// InsertEvaluator prices Algorithm 1's trial mappings incrementally
// against a Rebase placement baseline (see baseline for the propagation
// rule): TrialInsert evaluates placing a still-unscheduled operator path
// onto one GPU as singleton stages interleaved by priority order, and
// CommitInsert makes the winning trial the new baseline by splicing the
// inserted stages into the baseline structures.
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
type InsertEvaluator struct {
	baseline

	g       *graph.Graph
	order   []graph.OpID // priority order the placement was built over
	pos     []int        // op -> index in order
	stageOp []graph.OpID // stage id -> its single op

	// Propagation scratch, epoch-stamped like the baseline's.
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
}

// Rebase makes the singleton-stage schedule implied by (nGPUs, order,
// place) the baseline for subsequent TrialInsert and CommitInsert calls,
// without materializing it (see Evaluator.LatencyFromPlacement).
// Operators with place < 0 are unscheduled. The order slice must stay
// unmodified while trials run against this baseline, and every data
// edge must point forward in it (guaranteed when it is a topological
// order, as descending priority is for positive operator times).
func (ie *InsertEvaluator) Rebase(g *graph.Graph, m cost.Model, nGPUs int, order []graph.OpID, place []int) (units.Millis, error) {
	lat, err := ie.ev.LatencyFromPlacement(g, m, nGPUs, order, place)
	if err != nil {
		return 0, err
	}
	ie.g, ie.m, ie.nGPUs, ie.order = g, m, nGPUs, order
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
	ie.resize(ns, n)
	ie.opStamp = growStamped(ie.opStamp, n)
	ie.insIdxOf = growSlice(ie.insIdxOf, n)
	ie.growStageStamps(ns)
	return lat, nil
}

// growStageStamps sizes the per-stage patch scratch for ns stages. The
// arrays grow by one path per committed insertion, so fresh storage
// carries capacity headroom.
func (ie *InsertEvaluator) growStageStamps(ns int) {
	ie.seqStamp = growStamped(ie.seqStamp, ns)
	ie.seqNew = growSliceCap(ie.seqNew, ns)
	ie.extraStamp = growStamped(ie.extraStamp, ns)
	ie.extraHead = growSliceCap(ie.extraHead, ns)
	ie.runStamp = growStamped(ie.runStamp, ns)
	ie.runHead = growSliceCap(ie.runHead, ns)
	ie.asStamp = growStamped(ie.asStamp, ns)
	ie.asHead = growSliceCap(ie.asHead, ns)
}

// TrialInsert evaluates the placement obtained from the Rebase baseline
// by scheduling ops onto GPU gi as singleton stages interleaved into the
// GPU's sequence by priority order — exactly what LatencyFromPlacement
// computes after setting place[op] = gi for each. ops must be sorted by
// ascending position in the baseline's order and contain only operators
// unscheduled in the baseline. It returns the candidate's latency, or
// ok == false when the early-exit bound proved the candidate cannot beat
// bound.
func (ie *InsertEvaluator) TrialInsert(gi int, ops []graph.OpID, bound units.Millis) (units.Millis, bool) {
	lat, ok := ie.propagate(gi, ops, bound)
	ie.rollbackFinish(0, -1)
	return lat, ok
}

// propagate is TrialInsert without the rollback: every stamped stage
// holds its candidate finish in the baseline's finish array, and the
// full edit state (stamps, substitutions, extra-dependency pools,
// inserted finishes) is left for CommitInsert's splice.
//
// Placement-mode stage graphs cannot cycle — every dependency edge,
// sequential or data, points forward in the priority order — so unlike
// a fusion there is no error case, and the priority position replaces
// the recorded topological order as the propagation key.
func (ie *InsertEvaluator) propagate(gi int, ops []graph.OpID, bound units.Millis) (units.Millis, bool) {
	e := &ie.ev
	g, m := ie.g, ie.m
	k := len(ops)
	ns := ie.ns
	glo, ghi := ie.gpuLo[gi], ie.gpuLo[gi+1]
	ie.epoch++ // a new trial: all earlier stamps die
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
				return 0, false
			}
		}
	}
	if c := ie.cleanMax(-1, 0, -1); c > latMax {
		latMax = c
	}
	return latMax, true
}

// recomputeExisting returns the trial finish time of queued baseline
// stage x: its baseline dependency list with the sequential edge
// substituted when an inserted run now precedes it, plus the trial's
// extra dependencies from inserted operators.
func (ie *InsertEvaluator) recomputeExisting(x int) units.Millis {
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
func (ie *InsertEvaluator) recomputeInserted(j, gi int, ops []graph.OpID) units.Millis {
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
	return st + e.singletonTime(m, v)
}

// CommitInsert makes the TrialInsert candidate (gi, ops) the new
// baseline and returns its latency. It reruns the propagation without a
// bound, keeps its published finishes, and splices the inserted stages
// into the baseline structures in place — renumbering stage ids and
// rewriting the CSR stage DAG — instead of re-evaluating the whole
// placement. The spliced baseline is bit-identical to what a fresh
// Rebase would rebuild where it matters: copied rows keep their exact
// lags, new rows use the same cost-model calls the full evaluation
// would make, every dependency row still leads with its sequential
// edge, and dependency-entry order beyond that never influences a max.
func (ie *InsertEvaluator) CommitInsert(gi int, ops []graph.OpID) units.Millis {
	lat, _ := ie.propagate(gi, ops, units.Millis(math.Inf(1)))
	ie.applyInsert(gi, ops)
	return lat
}

// applyInsert splices the edit state propagate left into the baseline.
// Runs under the same epoch as the propagation.
func (ie *InsertEvaluator) applyInsert(gi int, ops []graph.OpID) {
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
		ie.finish2[x] = e.finish[o]
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
		ie.dur2[x] = e.singletonTime(m, v)
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
	ie.resize(ns2, g.NumOps())
	ie.growStageStamps(ns2)
}

// hasSeqSucc reports whether baseline stage o has a same-GPU successor
// stage (and therefore leads its successor row with that edge).
func (ie *InsertEvaluator) hasSeqSucc(o int) bool {
	return o+1 < ie.ns && ie.ev.seqPrev[o+1] == o
}
