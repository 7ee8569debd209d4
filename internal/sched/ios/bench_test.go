package ios

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/randdag"
)

// dpWork solves every block of g once, untimed, and counts the DP
// states expanded and the candidate stages they priced: an expanded
// state prices its frontier's whole candidate list. widest is the
// largest frontier an expanded state had.
func dpWork(tb testing.TB, g *graph.Graph, m cost.Model, opt Options) (states, cands, widest int) {
	tb.Helper()
	opt.fill()
	var sv solver
	for _, block := range Blocks(g) {
		if len(block) == 1 {
			continue // a singleton block runs no dynamic program
		}
		if _, err := sv.solveBlock(g, m, block, opt); err != nil {
			tb.Fatal(err)
		}
		states += len(sv.done)
		for i := range sv.done {
			st := &sv.done[i]
			sv.front = sv.frontier(&st.set, st.reach, opt.PruneWindow, sv.front[:0])
			cands += len(sv.candList(len(sv.front)))
			widest = max(widest, len(sv.front))
		}
	}
	return states, cands, widest
}

// benchSolveCold times cold (NoCache) IOS solves of g under m and
// reports the DP states expanded and candidate stages priced per solve
// (states/op, candidates/op, from one untimed pass) and the cost per
// state and per candidate (ns/state, ns/candidate).
func benchSolveCold(b *testing.B, g *graph.Graph, m cost.Model) {
	opt := Options{NoCache: true}
	states, cands, _ := dpWork(b, g, m, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(g, m, opt); err != nil {
			b.Fatal(err)
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(cands), "candidates/op")
	b.ReportMetric(ns/float64(states), "ns/state")
	b.ReportMetric(ns/float64(cands), "ns/candidate")
}

// BenchmarkSolveNASNetCold is one cold IOS solve of NASNet-A@1024 on the
// dual-A40 platform under the plain (ItemModel) cost model, with the
// block cache bypassed, so every iteration runs the whole dynamic
// program: its one 370-operator block dominates.
func BenchmarkSolveNASNetCold(b *testing.B) {
	plat := gpu.DualA40()
	g := model.NASNet(plat.Dev, plat.Link, 1024).G
	benchSolveCold(b, g, cost.FromGraph(g, cost.DefaultContention()))
}

// BenchmarkSolvePaperCold is one cold IOS solve of the 200-operator
// paper-default random DAG (seed 7) under the plain cost model, the
// shape the plan-random workload plans: one ~200-operator block in beam
// mode.
func BenchmarkSolvePaperCold(b *testing.B) {
	cfg := randdag.Paper()
	cfg.Seed = 7
	g := randdag.MustGenerate(cfg)
	benchSolveCold(b, g, cost.FromGraph(g, cost.DefaultContention()))
}
