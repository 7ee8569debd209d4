// Package window implements Algorithm 2 of the HIOS paper: intra-GPU
// inter-operator parallelization with a sliding window.
//
// Given a schedule that already maps operators to GPUs with sequential
// (singleton-stage) execution on each GPU, the pass slides a window of up
// to w consecutive operators along each GPU's execution order, in
// descending-priority order of the window's first operator. When all
// operators under the window are independent, it tentatively fuses them
// into one concurrent stage, rejects the fusion if it would create a cycle
// in the scheduled computation graph (an implicit cross-GPU dependency
// loop), reschedules everything at the earliest start times, and commits
// the fusion only when the end-to-end latency improves. The pass is
// therefore monotone: it never increases latency.
//
// Unlike IOS's exact exponential dynamic program, this pass is polynomial —
// O(w²·|V|·|E|³) in the paper's (loose) bound — and it accounts for
// cross-GPU dependencies, which single-GPU IOS cannot see.
package window

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
)

// DefaultSize is the default maximum window size w. The paper's examples
// use w = 2; real CNN stages rarely benefit beyond 4 concurrent operators
// on one device before contention dominates.
const DefaultSize = 4

// Parallelize runs Algorithm 2 over schedule s and returns the improved
// schedule and its latency. The input schedule is not modified. w is the
// maximum window size; values below 2 disable fusion and simply evaluate s.
//
//lint:hotpath
func Parallelize(g *graph.Graph, m cost.Model, s *sched.Schedule, w int) (sched.Result, error) {
	var fe sched.FuseEvaluator
	cur := s.CompactClone()
	curLat, err := fe.Rebase(g, m, cur)
	if err != nil {
		return sched.Result{}, err
	}
	if w < 2 {
		return sched.Result{Schedule: cur, Latency: curLat}, nil
	}

	// Operator -> (GPU, stage index), computed once and patched on each
	// committed fusion instead of rebuilt per window position. Only the
	// fused GPU's indices at or after the fusion point ever change.
	gpuOf, stageOf := cur.StageOf(g.NumOps())

	order := g.ByPriority()

	// Candidate fusions run through the FuseEvaluator against the rebased
	// baseline of cur: no candidate schedule is materialized and only the
	// fusion's dirty cone is re-propagated. Trial results are
	// bit-identical to a full evaluation of the materialized candidate, so
	// committed schedules (and the testdata goldens) are unchanged.
	// Committing re-runs the winning fusion's propagation and contracts
	// it into the baseline (CommitFuse) instead of paying a full
	// re-evaluation per improvement.
	members := make([]graph.OpID, 0, w)

	for i := 0; i < len(order)-1; i++ {
		v := order[i]
		gi, si := gpuOf[v], stageOf[v]
		stages := cur.GPUs[gi].Stages
		if len(stages[si].Ops) > 1 {
			// v has already been grouped into a concurrent stage;
			// the paper's walk-through skips such operators.
			continue
		}
		// Try window sizes p+1 = 2..w and keep the best improvement.
		bestLat := curLat
		bestP := 0
		var bestStages []sched.Stage
		for p := 1; p <= w-1; p++ {
			if si+p >= len(stages) {
				break
			}
			// The window masks w consecutive *operators* on this
			// GPU; a multi-operator stage in range means those
			// positions are already fused, so the run of singleton
			// stages ends here.
			if len(stages[si+p].Ops) > 1 {
				break
			}
			members = members[:0]
			for k := si; k <= si+p; k++ {
				members = append(members, stages[k].Ops...)
			}
			if !g.AllIndependent(members) {
				// Dependent operators can never share a stage; a
				// larger window containing the same pair cannot
				// either. The O(1) closure probe subsumes the old
				// direct-edge scan: a transitively dependent pair
				// would have been rejected as a stage-graph cycle
				// during evaluation, which also stopped extending.
				break
			}
			// Keep the merged stage sorted for deterministic output.
			for a := 1; a < len(members); a++ {
				for b := a; b > 0 && members[b] < members[b-1]; b-- {
					members[b], members[b-1] = members[b-1], members[b]
				}
			}
			lat, err := fe.TrialFuse(gi, si, p, members)
			if err != nil {
				// The fusion created a dependency cycle in the
				// scheduled computation graph (Algorithm 2,
				// line 10 rejects this candidate). Larger
				// windows contain this one, so stop extending.
				break
			}
			if lat < bestLat {
				bestLat = lat
				bestP = p
				bestStages = commitFusion(stages, si, p, members)
			}
		}
		if bestStages != nil {
			cur.GPUs[gi].Stages = bestStages
			// Re-index only the fused GPU from the fusion point on:
			// the window collapsed into stage si and later stages
			// shifted down. Other GPUs are untouched.
			for k := si; k < len(cur.GPUs[gi].Stages); k++ {
				for _, op := range cur.GPUs[gi].Stages[k].Ops {
					stageOf[op] = k
				}
			}
			lat, err := fe.CommitFuse(gi, si, bestP, bestStages[si].Ops)
			if err != nil {
				return sched.Result{}, err
			}
			curLat = lat
		}
	}
	return sched.Result{Schedule: cur, Latency: curLat}, nil
}

// commitFusion materializes the winning candidate's stage list for GPU
// gi: stages si..si+p collapse into one stage holding members (copied out
// of the trial scratch); the surrounding stages already own their member
// arrays (they are the committed stages of the current schedule, shared
// deliberately).
func commitFusion(stages []sched.Stage, si, p int, members []graph.OpID) []sched.Stage {
	out := make([]sched.Stage, 0, len(stages)-p)
	out = append(out, stages[:si]...)
	ops := make([]graph.OpID, len(members))
	copy(ops, members)
	out = append(out, sched.Stage{Ops: ops})
	out = append(out, stages[si+p+1:]...)
	return out
}

// ExactPerGPU is the §IV-B counterfactual: instead of the sliding window,
// run the exact IOS dynamic program independently on each GPU's operator
// sequence, ignoring cross-GPU dependencies — which is precisely what the
// paper says cannot work well. When the per-GPU decompositions compose
// into a valid (deadlock-free) global schedule AND improve latency, the
// improvement is kept per GPU; otherwise that GPU keeps sequential
// execution. The return value lets the ablation quantify how often the
// cross-GPU-blind approach mis-fires and how it compares to Parallelize.
func ExactPerGPU(g *graph.Graph, m cost.Model, s *sched.Schedule, iosOpt ios.Options) (sched.Result, error) {
	var ev sched.Evaluator
	cur := s.Clone()
	curLat, err := ev.Latency(g, m, cur)
	if err != nil {
		return sched.Result{}, err
	}
	for gi := range cur.GPUs {
		var ops []graph.OpID
		for _, st := range cur.GPUs[gi].Stages {
			ops = append(ops, st.Ops...)
		}
		if len(ops) < 2 {
			continue
		}
		stages, err := ios.SolveSequence(g, m, ops, iosOpt)
		if err != nil {
			return sched.Result{}, err
		}
		cand := cur.Clone()
		cand.GPUs[gi].Stages = nil
		for _, st := range stages {
			cand.AppendStage(gi, st)
		}
		lat, err := ev.Latency(g, m, cand)
		if err != nil {
			// The per-GPU optimum deadlocks against cross-GPU
			// dependencies — the failure mode the paper predicts.
			// Keep this GPU's previous decomposition.
			continue
		}
		if lat < curLat {
			cur, curLat = cand, lat
		}
	}
	return sched.Result{Schedule: cur, Latency: curLat}, nil
}
