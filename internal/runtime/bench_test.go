package runtime

import (
	"testing"
	"time"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/experiments"
	"github.com/shus-lab/hios/internal/randdag"
)

// BenchmarkExecute measures one live multi-worker execution (goroutines +
// MPI transfers) of a 60-operator schedule on 4 simulated GPUs.
func BenchmarkExecute60Ops4GPUs(b *testing.B) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 60, 6, 120, 2
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: 4})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{WorkPerMs: 500, CommDelay: time.Microsecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, m, res.Schedule, opt); err != nil {
			b.Fatal(err)
		}
	}
}
