package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/units"
)

// unbounded disables TrialInsert's early-exit bound.
var unbounded = units.Millis(math.Inf(1))

// testGraph builds a small random layered model; the same seed always
// yields the same instance.
func testGraph(seed int64, ops int) (*graph.Graph, cost.Model) {
	cfg := randdag.Paper()
	cfg.Ops = ops
	cfg.Layers = 6
	cfg.Deps = 2 * ops
	cfg.Seed = seed
	g := randdag.MustGenerate(cfg)
	return g, cost.FromGraph(g, cost.DefaultContention())
}

// roundRobin places every operator on a GPU in descending-priority
// round-robin, the simplest deadlock-free multi-GPU placement.
func roundRobin(g *graph.Graph, nGPUs int) ([]graph.OpID, []int) {
	order := g.ByPriority()
	place := make([]int, g.NumOps())
	for i, op := range order {
		place[op] = i % nGPUs
	}
	return order, place
}

// fuseCandidate materializes the schedule TrialFuse(gi, si, p) evaluates:
// stages si..si+p of GPU gi merged into one stage holding the sorted
// union of their operators. The returned members slice aliases the
// candidate's merged stage.
func fuseCandidate(cur *Schedule, gi, si, p int) (*Schedule, []graph.OpID) {
	stages := cur.GPUs[gi].Stages
	var members []graph.OpID
	for k := si; k <= si+p; k++ {
		members = append(members, stages[k].Ops...)
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	cand := cur.Clone()
	out := make([]Stage, 0, len(stages)-p)
	out = append(out, stages[:si]...)
	out = append(out, Stage{Ops: members})
	out = append(out, stages[si+p+1:]...)
	cand.GPUs[gi].Stages = out
	return cand, members
}

// TestIncrementalFuseMatchesFull is the fusion half of the differential
// property test: across 100 random layered graphs, every window fusion
// candidate — including invalid ones — must agree with the full
// evaluator on the materialized candidate schedule, bit for bit on the
// latency and one-to-one on error presence.
func TestIncrementalFuseMatchesFull(t *testing.T) {
	var ev Evaluator
	for seed := int64(1); seed <= 100; seed++ {
		g, m := testGraph(seed, 24+int(seed%3)*8)
		nGPUs := 2 + int(seed%3)
		order, place := roundRobin(g, nGPUs)
		cur := FromPlacement(nGPUs, order, place)

		var ie FuseEvaluator
		baseLat, err := ie.Rebase(g, m, cur)
		if err != nil {
			t.Fatalf("seed %d: Rebase: %v", seed, err)
		}
		if full, err := ev.Latency(g, m, cur); err != nil || full != baseLat {
			t.Fatalf("seed %d: Rebase latency %v vs full %v (%v)", seed, baseLat, full, err)
		}

		rng := rand.New(rand.NewSource(seed * 7919))
		for trial := 0; trial < 20; trial++ {
			gi := rng.Intn(nGPUs)
			stages := cur.GPUs[gi].Stages
			if len(stages) < 2 {
				continue
			}
			si := rng.Intn(len(stages) - 1)
			p := 1 + rng.Intn(3)
			if si+p >= len(stages) {
				p = len(stages) - 1 - si
			}
			cand, members := fuseCandidate(cur, gi, si, p)
			fullLat, fullErr := ev.Latency(g, m, cand)
			gotLat, gotErr := ie.TrialFuse(gi, si, p, members)
			if (fullErr != nil) != (gotErr != nil) {
				t.Fatalf("seed %d gi=%d si=%d p=%d: error mismatch: full=%v trial=%v",
					seed, gi, si, p, fullErr, gotErr)
			}
			if fullErr != nil {
				continue
			}
			if gotLat != fullLat {
				t.Fatalf("seed %d gi=%d si=%d p=%d: trial %v vs full %v",
					seed, gi, si, p, gotLat, fullLat)
			}
		}
	}
}

// TestIncrementalInsertMatchesFull is the placement half of the
// differential property test: across 100 random layered graphs, random
// operator subsets are inserted GPU by GPU — each trial compared bit for
// bit against a full evaluation of the trial placement — and the winner
// committed, so later rounds also pin the spliced baseline of
// CommitInsert against a placement evaluated from scratch.
func TestIncrementalInsertMatchesFull(t *testing.T) {
	var ev Evaluator
	for seed := int64(1); seed <= 100; seed++ {
		g, m := testGraph(seed+500, 24+int(seed%3)*8)
		n := g.NumOps()
		nGPUs := 2 + int(seed%3)
		order := g.ByPriority()

		place := make([]int, n)
		for i := range place {
			place[i] = -1
		}
		var ie InsertEvaluator
		if _, err := ie.Rebase(g, m, nGPUs, order, place); err != nil {
			t.Fatalf("seed %d: Rebase: %v", seed, err)
		}

		rng := rand.New(rand.NewSource(seed * 6007))
		// Remaining order indices of unscheduled operators, ascending.
		remaining := make([]int, n)
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			// Random subset of the next few unscheduled operators, in
			// ascending priority position as TrialInsert requires. Runs
			// of consecutive positions exercise the inserted-run
			// chaining, gaps the substituted sequential edges.
			span := 1 + rng.Intn(6)
			if span > len(remaining) {
				span = len(remaining)
			}
			var chunk []graph.OpID
			var taken []int
			for i := 0; i < span; i++ {
				if i == 0 || rng.Intn(2) == 0 {
					chunk = append(chunk, order[remaining[i]])
					taken = append(taken, i)
				}
			}

			best := unbounded
			bestGPU := 0
			for gi := 0; gi < nGPUs; gi++ {
				gotLat, ok := ie.TrialInsert(gi, chunk, unbounded)
				for _, v := range chunk {
					place[v] = gi
				}
				fullLat, err := ev.LatencyFromPlacement(g, m, nGPUs, order, place)
				if err != nil {
					t.Fatalf("seed %d: full placement eval: %v", seed, err)
				}
				for _, v := range chunk {
					place[v] = -1
				}
				if !ok || gotLat != fullLat {
					t.Fatalf("seed %d gi=%d chunk=%v: trial %v (ok=%v) vs full %v",
						seed, gi, chunk, gotLat, ok, fullLat)
				}
				if blat, ok := ie.TrialInsert(gi, chunk, fullLat); ok && blat != fullLat {
					t.Fatalf("seed %d gi=%d: bounded trial %v, want cutoff or %v",
						seed, gi, blat, fullLat)
				}
				if gotLat < best {
					best, bestGPU = gotLat, gi
				}
			}

			for _, v := range chunk {
				place[v] = bestGPU
			}
			committed := ie.CommitInsert(bestGPU, chunk)
			fullLat, err := ev.LatencyFromPlacement(g, m, nGPUs, order, place)
			if err != nil {
				t.Fatalf("seed %d: full eval after commit: %v", seed, err)
			}
			if committed != fullLat {
				t.Fatalf("seed %d: CommitInsert %v vs full %v", seed, committed, fullLat)
			}
			for i := len(taken) - 1; i >= 0; i-- {
				remaining = append(remaining[:taken[i]], remaining[taken[i]+1:]...)
			}
		}
	}
}

// TestCommitFuseSequenceMatchesRebase drives a sliding-window-style pass
// through CommitFuse: each committed fusion's returned latency — and the
// spliced baseline the next trials run against — must match a fresh full
// evaluation of the materialized schedule. The best-of-p inner loop
// commits a winning window size that is sometimes the last trial and
// sometimes an earlier one.
func TestCommitFuseSequenceMatchesRebase(t *testing.T) {
	var ev Evaluator
	for seed := int64(1); seed <= 20; seed++ {
		g, m := testGraph(seed+900, 40)
		nGPUs := 2 + int(seed%2)
		order, place := roundRobin(g, nGPUs)
		cur := FromPlacement(nGPUs, order, place)

		var ie FuseEvaluator
		curLat, err := ie.Rebase(g, m, cur)
		if err != nil {
			t.Fatalf("seed %d: Rebase: %v", seed, err)
		}

		commits := 0
		for gi := 0; gi < nGPUs; gi++ {
			for si := 0; si+1 < len(cur.GPUs[gi].Stages); si++ {
				bestLat := curLat
				bestP := 0
				for p := 1; p <= 3 && si+p < len(cur.GPUs[gi].Stages); p++ {
					_, members := fuseCandidate(cur, gi, si, p)
					lat, err := ie.TrialFuse(gi, si, p, members)
					if err != nil {
						break
					}
					if lat < bestLat {
						bestLat, bestP = lat, p
					}
				}
				if bestP == 0 {
					continue
				}
				cand, members := fuseCandidate(cur, gi, si, bestP)
				got, err := ie.CommitFuse(gi, si, bestP, members)
				if err != nil {
					t.Fatalf("seed %d: CommitFuse(gi=%d si=%d p=%d): %v", seed, gi, si, bestP, err)
				}
				full, err := ev.Latency(g, m, cand)
				if err != nil {
					t.Fatalf("seed %d: full eval of committed schedule: %v", seed, err)
				}
				if got != full || got != bestLat {
					t.Fatalf("seed %d: CommitFuse %v, trial said %v, full %v", seed, got, bestLat, full)
				}
				cur, curLat = cand, got
				commits++
			}
		}
		if commits == 0 {
			continue // nothing improved on this instance; others commit
		}
		// The spliced baseline must still answer trials exactly.
		if lat, err := ie.Rebase(g, m, cur); err != nil || lat != curLat {
			t.Fatalf("seed %d: re-Rebase after %d commits: %v (%v), want %v",
				seed, commits, lat, err, curLat)
		}
	}
}

// TestTrialFuseLeavesBaselineIntact pins the publish-and-rollback
// contract: a trial (valid or rejected) must leave the baseline finish
// times exactly as Rebase built them, so any number of trials can run
// back to back against one baseline.
func TestTrialFuseLeavesBaselineIntact(t *testing.T) {
	g, m := testGraph(4242, 32)
	nGPUs := 3
	order, place := roundRobin(g, nGPUs)
	cur := FromPlacement(nGPUs, order, place)

	var ie FuseEvaluator
	if _, err := ie.Rebase(g, m, cur); err != nil {
		t.Fatal(err)
	}
	before := append([]units.Millis(nil), ie.ev.finish...)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		gi := rng.Intn(nGPUs)
		stages := cur.GPUs[gi].Stages
		si := rng.Intn(len(stages) - 1)
		p := 1
		_, members := fuseCandidate(cur, gi, si, p)
		ie.TrialFuse(gi, si, p, members)
		for i, f := range ie.ev.finish {
			if f != before[i] {
				t.Fatalf("trial %d (gi=%d si=%d): baseline finish[%d] drifted: %v != %v",
					trial, gi, si, i, f, before[i])
			}
		}
	}
}
