package ios

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/units"
)

// fuzzGraph decodes bytes into a small graph: one byte for the operator
// count (1–24), then per operator its time and utilization as float32
// bits, then 6-byte edge records (endpoint bytes, one past the last
// operator meaning "unknown", and the transfer time's float32 bits).
// Missing bytes read as zero. float32 bits reach every class of float —
// NaN, ±Inf, negatives, subnormals — while keeping any sum of 24 finite
// values, even scaled by the contention penalty, finite in float64.
func fuzzGraph(data []byte) *graph.Graph {
	next := func(k int) []byte {
		var buf [4]byte
		k = copy(buf[:k], data)
		data = data[k:]
		return buf[:]
	}
	f32 := func() float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(next(4)))) }
	n := 1 + int(next(1)[0])%24
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		g.AddOp(graph.Op{Time: f32(), Util: f32()})
	}
	for e := 0; len(data) > 0 && e < 64; e++ {
		ends := next(2)
		from := graph.OpID(int(ends[0]) % (n + 1))
		to := graph.OpID(int(ends[1]) % (n + 1))
		g.AddEdge(from, to, f32())
	}
	return g
}

// FuzzFinalizeSchedule checks the graph boundary end to end: arbitrary
// weights and edges either fail Finalize or yield, under both the default
// options and a forced narrow beam, a schedule that Validate accepts with
// a finite, non-negative latency no shorter than any operator's time.
// The seed corpus lives in testdata/fuzz/FuzzFinalizeSchedule; its
// nan-op-time and nan-util entries are graphs Finalize once accepted, and
// rounding-priority-tie is one whose priority order was not topological.
func FuzzFinalizeSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if err := g.Finalize(); err != nil {
			return
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		for _, opt := range []Options{{}, {ExactLimit: 1, Beam: 2}} {
			res, err := Schedule(g, m, opt)
			if err != nil {
				t.Fatalf("Schedule(%+v) on a finalized graph: %v", opt, err)
			}
			if err := sched.Validate(g, res.Schedule); err != nil {
				t.Fatalf("Schedule(%+v) returned an invalid schedule: %v", opt, err)
			}
			lat := float64(res.Latency)
			if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
				t.Fatalf("Schedule(%+v) latency %v, want finite and >= 0", opt, lat)
			}
			// Every operator runs inside one stage, and a stage lasts at
			// least as long as its longest member.
			for v := 0; v < g.NumOps(); v++ {
				if tv := g.Time(graph.OpID(v)); !(lat >= tv) {
					t.Fatalf("Schedule(%+v) latency %v below operator %d's time %v", opt, lat, v, tv)
				}
			}
		}
	})
}

// FuzzIncrementalMatchesEvaluate is the differential timing fuzzer: on
// every graph Finalize accepts, the analytic evaluator, the event-driven
// simulator and both incremental evaluators must give one latency.
//   - The IOS schedule's sched.Latency and FuseEvaluator.Rebase agree bit
//     for bit, and sim.Run agrees within TestMatchesEvaluator's 1e-6.
//   - Every fusion candidate of that schedule and of a round-robin
//     placement matches the full evaluator on the materialized candidate:
//     error presence one to one, latency bit for bit. The best candidate
//     is committed, CommitFuse must return its trial's latency, and the
//     walk repeats on the spliced baseline until no fusion is valid.
//   - The round-robin placement is built one operator at a time through
//     InsertEvaluator; every trial and commit equals LatencyFromPlacement.
//
// The seed corpus lives in testdata/fuzz/FuzzIncrementalMatchesEvaluate.
func FuzzIncrementalMatchesEvaluate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nGPUs := 1 + len(data)%3
		g := fuzzGraph(data)
		if err := g.Finalize(); err != nil {
			return
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		// Blocks wider than 8 run the beam, so no input stalls on an exact
		// solve of 20 independent operators and a short run covers many.
		res, err := Schedule(g, m, Options{ExactLimit: 8})
		if err != nil {
			t.Fatalf("IOS on a finalized graph: %v", err)
		}
		full, err := sched.Latency(g, m, res.Schedule)
		if err != nil {
			t.Fatalf("Latency of the IOS schedule: %v", err)
		}
		var fe sched.FuseEvaluator
		if lat, err := fe.Rebase(g, m, res.Schedule); err != nil || !sameBits(lat, full) {
			t.Fatalf("FuseEvaluator.Rebase %v (%v), Latency %v", lat, err, full)
		}
		tr, err := sim.Run(g, m, res.Schedule)
		if err != nil {
			t.Fatalf("sim.Run of the IOS schedule: %v", err)
		}
		if d := tr.Latency - full; d >= 1e-6 || d <= -1e-6 {
			t.Fatalf("sim.Run %v, Latency %v", tr.Latency, full)
		}

		order := g.ByPriority()
		place := make([]int, g.NumOps())
		for i := range place {
			place[i] = -1
		}
		var ie sched.InsertEvaluator
		var ev sched.Evaluator
		if _, err := ie.Rebase(g, m, nGPUs, order, place); err != nil {
			t.Fatalf("InsertEvaluator.Rebase of the empty placement: %v", err)
		}
		for i, op := range order {
			gi := i % nGPUs
			ops := []graph.OpID{op}
			trial, ok := ie.TrialInsert(gi, ops, units.Millis(math.Inf(1)))
			committed := ie.CommitInsert(gi, ops)
			place[op] = gi
			want, err := ev.LatencyFromPlacement(g, m, nGPUs, order, place)
			if err != nil {
				t.Fatalf("LatencyFromPlacement after %d ops: %v", i+1, err)
			}
			if !ok || !sameBits(trial, want) || !sameBits(committed, want) {
				t.Fatalf("insert op %d on GPU %d: trial %v (ok=%v), commit %v, full %v",
					op, gi, trial, ok, committed, want)
			}
		}

		for _, s := range []*sched.Schedule{res.Schedule, sched.FromPlacement(nGPUs, order, place)} {
			fuseWalk(t, g, m, s)
		}
	})
}

// fuseWalk checks every fusion candidate of s against the full evaluator,
// commits the best valid one, and repeats on the result until no fusion
// is valid.
func fuseWalk(t *testing.T, g *graph.Graph, m cost.Model, s *sched.Schedule) {
	var fe sched.FuseEvaluator
	var ev sched.Evaluator
	curLat, err := fe.Rebase(g, m, s)
	if err != nil {
		t.Fatalf("FuseEvaluator.Rebase: %v", err)
	}
	cur := s
	for {
		bestGi, bestSi, bestP := -1, 0, 0
		var bestLat units.Millis
		for gi, q := range cur.GPUs {
			for si := range q.Stages {
				for p := 1; si+p < len(q.Stages); p++ {
					cand, members := fuseCandidate(cur, gi, si, p)
					want, wantErr := ev.Latency(g, m, cand)
					got, gotErr := fe.TrialFuse(gi, si, p, members)
					if (wantErr != nil) != (gotErr != nil) {
						t.Fatalf("fuse gi=%d si=%d p=%d: trial error %v, full error %v", gi, si, p, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if !sameBits(got, want) {
						t.Fatalf("fuse gi=%d si=%d p=%d: trial %v, full %v", gi, si, p, got, want)
					}
					if bestGi < 0 || got < bestLat {
						bestGi, bestSi, bestP, bestLat = gi, si, p, got
					}
				}
			}
		}
		if bestGi < 0 {
			break
		}
		cand, members := fuseCandidate(cur, bestGi, bestSi, bestP)
		got, err := fe.CommitFuse(bestGi, bestSi, bestP, members)
		if err != nil || !sameBits(got, bestLat) {
			t.Fatalf("CommitFuse gi=%d si=%d p=%d: %v (%v), trial said %v", bestGi, bestSi, bestP, got, err, bestLat)
		}
		cur, curLat = cand, got
	}
	if want, err := ev.Latency(g, m, cur); err != nil || !sameBits(curLat, want) {
		t.Fatalf("after the commits: %v, full %v (%v)", curLat, want, err)
	}
}

// fuseCandidate materializes the schedule TrialFuse(gi, si, p) evaluates:
// stages si..si+p of GPU gi merged into one stage holding the sorted
// union of their operators, which members aliases.
func fuseCandidate(cur *sched.Schedule, gi, si, p int) (*sched.Schedule, []graph.OpID) {
	stages := cur.GPUs[gi].Stages
	var members []graph.OpID
	for k := si; k <= si+p; k++ {
		members = append(members, stages[k].Ops...)
	}
	slices.Sort(members)
	cand := cur.Clone()
	out := append([]sched.Stage(nil), stages[:si]...)
	out = append(out, sched.Stage{Ops: members})
	cand.GPUs[gi].Stages = append(out, stages[si+p+1:]...)
	return cand, members
}

// sameBits reports whether two latencies are the same float64 bits.
func sameBits(a, b units.Millis) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}
