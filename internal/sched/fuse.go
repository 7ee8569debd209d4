package sched

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// FuseEvaluator prices Algorithm 2's candidate fusions incrementally
// against a Rebase baseline (see baseline for the propagation rule):
// TrialFuse evaluates merging stages si..si+p of one GPU into one
// concurrent stage, and CommitFuse makes such a fusion the new baseline
// by contracting it out of the baseline stage DAG in place.
//
// The zero value is ready to use. Not safe for concurrent use; give
// each goroutine its own.
type FuseEvaluator struct {
	baseline

	// Transitive closure of the baseline stage DAG as bitset rows, for
	// O(p·ns/64) fusion cycle checks.
	cwords int
	sfwd   []uint64 // stage id -> bitset row of stages it reaches
	sbwd   []uint64 // stage id -> bitset row of stages reaching it
	rowBuf []uint64 // closure-remap scratch: one source row
	mrow   []uint64 // closure-remap scratch: the merged stage's two rows

	fuseDur units.Millis // last propagated fusion's merged-stage duration
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
func (fe *FuseEvaluator) Rebase(g *graph.Graph, m cost.Model, s *Schedule) (units.Millis, error) {
	lat, err := fe.ev.Latency(g, m, s)
	if err != nil {
		return 0, err
	}
	fe.m, fe.nGPUs = m, len(s.GPUs)
	fe.gpuLo = growSlice(fe.gpuLo, fe.nGPUs+1)
	ns := 0
	for gi := range s.GPUs {
		fe.gpuLo[gi] = ns
		ns += len(s.GPUs[gi].Stages)
	}
	fe.gpuLo[fe.nGPUs] = ns
	fe.resize(ns, ns)
	fe.buildStageClosure()
	return lat, nil
}

// buildStageClosure computes forward and backward reachability bitsets
// over the baseline stage DAG with the usual word-parallel DP along the
// recorded topological order: O(E·ns/64) per Rebase, amortized across
// every TrialFuse cycle check against that baseline.
func (fe *FuseEvaluator) buildStageClosure() {
	e := &fe.ev
	ns := fe.ns
	w := (ns + 63) / 64
	fe.cwords = w
	fe.sfwd = growSlice(fe.sfwd, ns*w)
	fe.sbwd = growSlice(fe.sbwd, ns*w)
	for i := 0; i < ns*w; i++ {
		fe.sfwd[i] = 0
		fe.sbwd[i] = 0
	}
	for i := ns - 1; i >= 0; i-- {
		v := int(e.topoSeq[i])
		row := fe.sfwd[v*w : v*w+w]
		for k := e.succOff[v]; k < e.succOff[v+1]; k++ {
			t := e.succTo[k]
			row[t>>6] |= 1 << (uint(t) & 63)
			trow := fe.sfwd[t*w : t*w+w]
			for j := 0; j < w; j++ {
				row[j] |= trow[j]
			}
		}
	}
	for i := 0; i < ns; i++ {
		v := int(e.topoSeq[i])
		row := fe.sbwd[v*w : v*w+w]
		for k := e.depOff[v]; k < e.depOff[v+1]; k++ {
			s := e.depFrom[k]
			row[s>>6] |= 1 << (uint(s) & 63)
			srow := fe.sbwd[s*w : s*w+w]
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
func (fe *FuseEvaluator) remapStageClosure(ns, lo, hi, p int) {
	w := fe.cwords
	ns2 := ns - p
	w2 := (ns2 + 63) / 64
	loW := lo >> 6
	loBit := uint64(1) << (uint(lo) & 63)
	fe.rowBuf = growSlice(fe.rowBuf, w)
	fe.mrow = growSlice(fe.mrow, 2*w2)
	fwdM := fe.mrow[:w2]
	bwdM := fe.mrow[w2 : 2*w2]
	for j := 0; j < w2; j++ {
		fwdM[j] = 0
		bwdM[j] = 0
	}
	for id := lo; id <= hi; id++ {
		remapClosureRow(fe.rowBuf[:w2], fe.sfwd[id*w:id*w+w], lo, hi, p, w2)
		for j := 0; j < w2; j++ {
			fwdM[j] |= fe.rowBuf[j]
		}
		remapClosureRow(fe.rowBuf[:w2], fe.sbwd[id*w:id*w+w], lo, hi, p, w2)
		for j := 0; j < w2; j++ {
			bwdM[j] |= fe.rowBuf[j]
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
			copy(fe.sfwd[x*w2:x*w2+w2], fwdM)
			copy(fe.sbwd[x*w2:x*w2+w2], bwdM)
			x++
			continue
		}
		copy(fe.rowBuf[:w], fe.sfwd[o*w:o*w+w])
		if remapClosureRow(fe.sfwd[x*w2:x*w2+w2], fe.rowBuf[:w], lo, hi, p, w2) {
			row := fe.sfwd[x*w2 : x*w2+w2]
			for j := 0; j < w2; j++ {
				row[j] |= fwdM[j]
			}
		}
		copy(fe.rowBuf[:w], fe.sbwd[o*w:o*w+w])
		if remapClosureRow(fe.sbwd[x*w2:x*w2+w2], fe.rowBuf[:w], lo, hi, p, w2) {
			row := fe.sbwd[x*w2 : x*w2+w2]
			for j := 0; j < w2; j++ {
				row[j] |= bwdM[j]
			}
		}
		x++
	}
	fe.cwords = w2
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

// TrialFuse evaluates the candidate schedule obtained from the Rebase
// baseline by merging stages si..si+p of GPU gi into one concurrent
// stage holding members (the sorted union of their operators, exactly
// as the committed stage would store them). It returns the candidate's
// latency, or an error when the fusion is invalid (a direct dependency
// inside the merged stage, or a cycle through the contracted stage
// graph) — the same candidates, under the same error precedence, the
// full evaluator rejects.
func (fe *FuseEvaluator) TrialFuse(gi, si, p int, members []graph.OpID) (units.Millis, error) {
	lat, err := fe.propagate(gi, si, p, members)
	if err == nil {
		fe.rollbackFinish(fe.gpuLo[gi]+si, fe.gpuLo[gi]+si+p)
	}
	return lat, err
}

// propagate is TrialFuse without the rollback: on success the fused
// range and every stamped stage hold their candidate finish in the
// baseline's finish array. A rejected fusion has touched nothing.
func (fe *FuseEvaluator) propagate(gi, si, p int, members []graph.OpID) (units.Millis, error) {
	e := &fe.ev
	lo := fe.gpuLo[gi] + si
	hi := lo + p
	fe.epoch++ // a new trial: all earlier stamps die

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
	w := fe.cwords
	for wi := 0; wi < w; wi++ {
		var u, d uint64
		for id := lo; id <= hi; id++ {
			u |= fe.sfwd[id*w+wi]
			d |= fe.sbwd[id*w+wi]
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
	durM := fe.m.StageTime(members)
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
	fe.fuseDur = durM
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
	// into the baseline array (members carry the merged finish), which
	// keeps the dependency scan a single load per edge. A stage whose
	// recomputed finish bit-equals its baseline finish stops the wave.
	fe.touched = fe.touched[:0]
	for id := lo; id <= hi; id++ {
		fe.save[id] = e.finish[id]
		e.finish[id] = finishM
	}
	clear(fe.posBits[:(fe.ns+63)/64])
	pending := 0
	for id := lo; id <= hi; id++ {
		for k := e.succOff[id]; k < e.succOff[id+1]; k++ {
			t := e.succTo[k]
			if t >= lo && t <= hi {
				continue
			}
			if fe.stamp[t] != fe.epoch {
				fe.stamp[t] = fe.epoch
				fe.save[t] = e.finish[t]
				fe.touched = append(fe.touched, int32(t))
				p := int(e.topoPos[t])
				fe.posBits[p>>6] |= 1 << (uint(p) & 63)
				pending++
			}
		}
	}
	for wi := 0; pending > 0; wi++ {
		for fe.posBits[wi] != 0 {
			b := bits.TrailingZeros64(fe.posBits[wi])
			fe.posBits[wi] &^= 1 << uint(b)
			x := int(e.topoSeq[wi<<6|b])
			pending--
			st := units.Millis(0)
			for k := e.depOff[x]; k < e.depOff[x+1]; k++ {
				if t := e.finish[e.depFrom[k]] + e.depLag[k]; t > st {
					st = t
				}
			}
			fin := st + e.dur[x]
			if fin > latMax {
				latMax = fin
			}
			if fin != e.finish[x] { //lint:floatexact change-stop rule: bit-equal finish ends the wave
				e.finish[x] = fin
				for k := e.succOff[x]; k < e.succOff[x+1]; k++ {
					t := e.succTo[k]
					if fe.stamp[t] != fe.epoch {
						fe.stamp[t] = fe.epoch
						fe.save[t] = e.finish[t]
						fe.touched = append(fe.touched, int32(t))
						p := int(e.topoPos[t])
						fe.posBits[p>>6] |= 1 << (uint(p) & 63)
						pending++
					}
				}
			}
		}
	}
	if c := fe.cleanMax(gi, lo, hi); c > latMax {
		latMax = c
	}
	return latMax, nil
}

// CommitFuse makes the TrialFuse candidate (gi, si, p, members) the new
// baseline and returns its latency. It reruns the propagation, keeps its
// published finishes, and contracts the fused range out of the baseline
// CSR in place — remapping stage ids and dropping the p intra-range
// sequential edges — then refreshes the recorded topological order with
// a plain Kahn sweep and remaps the stage closure. Compared to a full
// Rebase this skips schedule validation, the graph-edge walk with its
// communication-cost lookups, and every per-stage duration model call:
// fusing within one GPU moves no operator, so all surviving lags and
// durations are the baseline's own values, and the merged stage's
// duration was already computed by the propagation. The spliced
// baseline is bit-identical to a Rebase of the materialized schedule
// wherever it is read: dependency rows keep one entry per graph edge
// with exact lags (entry order never influences a max), finishes come
// from the propagation, and only e.start and the operator maps go stale
// — neither is read before the next full evaluation.
func (fe *FuseEvaluator) CommitFuse(gi, si, p int, members []graph.OpID) (units.Millis, error) {
	lat, err := fe.propagate(gi, si, p, members)
	if err != nil {
		return 0, err
	}
	if err := fe.applyFuse(gi, si, p); err != nil {
		return 0, err
	}
	return lat, nil
}

// applyFuse contracts the fusion propagate just published into the
// baseline: stages lo..hi collapse into one stage at id lo and every
// later id shifts down by p. The contraction is fully in place: ids only
// move down and rows only shrink (exactly the p intra-range sequential
// edges disappear; the direct-dependency check rejected any data edge
// between members), so compaction writes never pass their reads, and
// rows of ids below the fused range keep their offsets — only entry
// values pointing at or beyond the range are rewritten.
func (fe *FuseEvaluator) applyFuse(gi, si, p int) error {
	e := &fe.ev
	lo := fe.gpuLo[gi] + si
	hi := lo + p
	ns := fe.ns
	ns2 := ns - p

	// Prefix ids (< lo): offsets, lags, durations, finishes and
	// sequential links are untouched (a same-GPU predecessor always has
	// a smaller id); remap entry values.
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
			e.dur[x] = fe.fuseDur
			// e.finish[lo] already holds the merged finish and
			// e.seqPrev[lo] names the stage before the range.
		} else {
			e.dur[x] = e.dur[o]
			e.finish[x] = e.finish[o]
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

	for g2 := gi + 1; g2 <= fe.nGPUs; g2++ {
		fe.gpuLo[g2] -= p
	}
	fe.ns = ns2

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
	fe.remapStageClosure(ns, lo, hi, p)
	return nil
}
