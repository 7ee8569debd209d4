package sched

import (
	"math/rand"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
)

func BenchmarkEvaluate200Ops4GPUs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomLayered(rng, 200, 400)
	m := cost.FromGraph(g, cost.DefaultContention())
	place := make([]int, 200)
	for i := range place {
		place[i] = rng.Intn(4)
	}
	s := FromPlacement(4, g.ByPriority(), place)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(g, m, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate200Ops(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomLayered(rng, 200, 400)
	s := Sequential(g.ByPriority())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(g, s); err != nil {
			b.Fatal(err)
		}
	}
}

// reportTrialCosts reports the per-unit costs of b.N incremental trials
// that recomputed a total of stages baseline stages.
func reportTrialCosts(b *testing.B, stages int) {
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N), "ns/trial")
	b.ReportMetric(float64(stages)/float64(b.N), "stages/trial")
	if stages > 0 {
		b.ReportMetric(ns/float64(stages), "ns/stage")
	}
}

// BenchmarkTrialFuse cycles every valid one- and two-step fusion of a
// 200-operator schedule on 4 GPUs through one FuseEvaluator baseline.
func BenchmarkTrialFuse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomLayered(rng, 200, 400)
	m := cost.FromGraph(g, cost.DefaultContention())
	order, place := roundRobin(g, 4)
	s := FromPlacement(4, order, place)
	var fe FuseEvaluator
	if _, err := fe.Rebase(g, m, s); err != nil {
		b.Fatal(err)
	}
	type cand struct {
		gi, si, p int
		members   []graph.OpID
	}
	var cands []cand
	for gi, q := range s.GPUs {
		for si := range q.Stages {
			for p := 1; p <= 2 && si+p < len(q.Stages); p++ {
				_, members := fuseCandidate(s, gi, si, p)
				if _, err := fe.TrialFuse(gi, si, p, members); err == nil {
					cands = append(cands, cand{gi, si, p, members})
				}
			}
		}
	}
	stages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cands[i%len(cands)]
		if _, err := fe.TrialFuse(c.gi, c.si, c.p, c.members); err != nil {
			b.Fatal(err)
		}
		stages += len(fe.touched)
	}
	b.StopTimer()
	reportTrialCosts(b, stages)
}

// BenchmarkTrialInsert cycles single-operator insertions onto each of 4
// GPUs through one InsertEvaluator baseline: a 200-operator round-robin
// placement with every eighth operator of the priority order left out.
func BenchmarkTrialInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomLayered(rng, 200, 400)
	m := cost.FromGraph(g, cost.DefaultContention())
	order, place := roundRobin(g, 4)
	var left [][]graph.OpID
	for i, op := range order {
		if i%8 == 3 {
			place[op] = -1
			left = append(left, []graph.OpID{op})
		}
	}
	var ie InsertEvaluator
	if _, err := ie.Rebase(g, m, 4, order, place); err != nil {
		b.Fatal(err)
	}
	stages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ie.TrialInsert(i%4, left[(i/4)%len(left)], unbounded)
		stages += len(ie.touched)
	}
	b.StopTimer()
	reportTrialCosts(b, stages)
}
