package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n, m int) *Graph {
	rng := rand.New(rand.NewSource(1))
	return randomDAG(rng, n, m)
}

func BenchmarkTopoOrder200(b *testing.B) {
	g := benchGraph(200, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriorityIndicators200(b *testing.B) {
	g := benchGraph(200, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.PriorityIndicators()
	}
}

func BenchmarkLongestValidPath200(b *testing.B) {
	g := benchGraph(200, 400)
	un := make([]bool, g.NumOps())
	for i := range un {
		un[i] = true
	}
	// Schedule half to exercise the boundary logic.
	for i := 0; i < len(un); i += 2 {
		un[i] = false
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.LongestValidPath(un)
	}
}

func BenchmarkReachable400(b *testing.B) {
	g := benchGraph(400, 800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reachable(0, OpID(g.NumOps()-1))
	}
}
