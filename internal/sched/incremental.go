package sched

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/units"
)

// Incremental evaluation answers "what would the latency be under this
// small edit?" without re-evaluating the whole schedule. A Rebase runs
// one full evaluation and keeps its stage DAG, durations and timeline as
// the baseline; each trial then re-propagates start times only through
// the edit's dirty frontier, reading every untouched stage's time
// straight from the baseline. FuseEvaluator (Algorithm 2's fusions) and
// InsertEvaluator (Algorithm 1's trial mappings) share this core; each
// commit splices its edit into the baseline in place.
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
// Trials publish recomputed finishes straight into the baseline's
// finish array — so the propagation's dependency scans are single plain
// loads, with no stamp branches — and roll the touched entries back
// before returning. Every stamped stage is processed before propagation
// ends, so a commit skips the rollback and its splice reads each
// recomputed finish straight from that array.
//
// baseline is that shared core. Not safe for concurrent use.
type baseline struct {
	ev Evaluator // full evaluator; its scratch arrays ARE the baseline snapshot

	m     cost.Model
	nGPUs int
	ns    int   // baseline stage count
	gpuLo []int // stage-id range of GPU gi: [gpuLo[gi], gpuLo[gi+1])

	// Trial scratch, epoch-stamped so trials neither allocate nor clear:
	// save keeps the displaced baseline finish of each stamped stage for
	// the rollback, and touched lists the stamped ids.
	epoch   int64
	stamp   []int64        // stage id -> epoch when queued for recomputation
	save    []units.Millis // displaced baseline finish of a stamped stage
	touched []int32        // stamped stage ids of the current trial
	posBits []uint64       // queued scan positions (topo order or priority order)
}

// resize records a baseline of ns stages and sizes the trial scratch for
// it, queueing over nPos scan positions. Stamp arrays carry capacity
// headroom: the insert baseline grows by one path per commit.
func (b *baseline) resize(ns, nPos int) {
	b.ns = ns
	b.stamp = growStamped(b.stamp, ns)
	b.save = growSliceCap(b.save, ns)
	b.posBits = growSlice(b.posBits, (nPos+63)/64)
}

// growStamped grows an epoch-stamp array. Fresh storage starts at
// epoch 0, which never matches a live epoch (each trial increments the
// epoch before stamping), so stale and fresh entries are equally dead.
func growStamped(buf []int64, n int) []int64 {
	if cap(buf) < n {
		nb := make([]int64, n, 2*n)
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

// rollbackFinish restores the baseline finish of every stage the trial
// overlaid: the stamped ids in touched, plus (for a fusion) the fused
// range loDead..hiDead, which carried the merged finish.
func (b *baseline) rollbackFinish(loDead, hiDead int) {
	e := &b.ev
	for _, t := range b.touched {
		e.finish[t] = b.save[t]
	}
	for id := loDead; id <= hiDead; id++ {
		e.finish[id] = b.save[id]
	}
}

// cleanMax returns the maximum baseline finish over all stages the trial
// left untouched. Stage finish times are monotone along each GPU's stage
// list (consecutive stages are linked by zero-lag sequential edges), so
// each GPU contributes the finish of its highest-id unstamped stage; the
// walk back over stamped stages costs O(#stamped) overall. On editGPU
// (when >= 0), ids deadLo..deadHi — TrialFuse's fused range, which is
// neither stamped nor alive — are skipped too.
func (b *baseline) cleanMax(editGPU, deadLo, deadHi int) units.Millis {
	e := &b.ev
	best := units.Millis(0)
	for gi := 0; gi < b.nGPUs; gi++ {
		idx := b.gpuLo[gi+1] - 1
		for idx >= b.gpuLo[gi] {
			if gi == editGPU && idx >= deadLo && idx <= deadHi {
				idx = deadLo - 1
				continue
			}
			if b.stamp[idx] == b.epoch {
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
