package ios

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/model"
)

// BenchmarkSolveNASNetCold is one cold IOS solve of NASNet-A@1024 on the
// dual-A40 platform under the plain (ItemModel) cost model, with the
// block cache bypassed, so every iteration runs the whole dynamic
// program: its one 370-operator block dominates. It reports the DP
// states expanded per solve (states/op, from one untimed pass) and the
// cost per expanded state (ns/state).
func BenchmarkSolveNASNetCold(b *testing.B) {
	plat := gpu.DualA40()
	g := model.NASNet(plat.Dev, plat.Link, 1024).G
	m := cost.FromGraph(g, cost.DefaultContention())
	opt := Options{NoCache: true}
	states := 0
	counted := opt
	counted.fill()
	var sv solver
	for _, block := range Blocks(g) {
		if len(block) == 1 {
			continue // a singleton block runs no dynamic program
		}
		if _, err := sv.solveBlock(g, m, block, counted); err != nil {
			b.Fatal(err)
		}
		states += len(sv.done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(g, m, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*states), "ns/state")
}
