package sim

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
)

func BenchmarkSimulate200Ops4GPUs(b *testing.B) {
	cfg := randdag.Paper()
	cfg.Seed = 5
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	inter, err := lp.Schedule(g, m, lp.Options{GPUs: 4})
	if err != nil {
		b.Fatal(err)
	}
	res, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(g, m, res.Schedule, Options{SerializeLinks: true}); err != nil {
			b.Fatal(err)
		}
	}
}
