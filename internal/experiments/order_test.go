package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
)

// TestTableExportIndependentOfAlgorithmOrder runs HIOS-LP or HIOS-MR and
// IOS on one profiling table in both orders and requires byte-identical
// snapshots. The evaluator behind LP/MR probes a stage's members in ID
// order and the IOS dynamic program in priority order, so a table whose
// price for a stage depended on the member order it first saw would
// record different bits, and feed IOS different prices, depending on
// which algorithm ran first.
func TestTableExportIndependentOfAlgorithmOrder(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	for seed := int64(1); seed <= 4; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		inputs = append(inputs, input{fmt.Sprintf("paper-seed%d", seed), randdag.MustGenerate(cfg)})
	}
	net, err := BuildBenchmark(NASNet, gpu.DualA40(), 331)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"nasnet@331", net.G})

	export := func(g *graph.Graph, algos ...string) []byte {
		t.Helper()
		tab := profile.NewTable(cost.FromGraph(g, cost.DefaultContention()), 0, 0)
		for _, a := range algos {
			if _, err := Run(a, g, tab, RunConfig{GPUs: 2}); err != nil {
				t.Fatalf("%s: %v", a, err)
			}
		}
		snap, err := tab.Export("")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	for _, in := range inputs {
		for _, hios := range []string{AlgoHIOSLP, AlgoHIOSMR} {
			first := export(in.g, hios, AlgoIOS)
			second := export(in.g, AlgoIOS, hios)
			if !bytes.Equal(first, second) {
				t.Errorf("%s: %s then %s exports %d bytes, %s then %s %d bytes, not the same",
					in.name, hios, AlgoIOS, len(first), AlgoIOS, hios, len(second))
			}
		}
	}
}
