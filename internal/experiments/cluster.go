package experiments

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/stats"
)

// ClusterStudy extends the paper's SMP setting to the multi-node clusters
// its introduction motivates: a two-node, two-GPUs-per-node platform where
// inter-node transfers cost interFactor times the intra-node baseline. It
// compares topology-aware HIOS-LP (scheduling against the hierarchical
// cost model, so trial mappings see the true pair costs) with
// topology-blind HIOS-LP (scheduling against the flat model, then
// measured on the hierarchical platform), across inter-node cost factors.
//
// The gap between the two curves is the value of topology awareness;
// it must be >= 0 at every factor and grow as inter-node links slow down.
func ClusterStudy(opt SimOptions) (Figure, error) {
	opt.fill()
	factors := []float64{1, 2, 4, 8, 16}
	const nodes, perNode = 2, 2
	fig := Figure{
		ID:     "Cluster",
		Title:  "topology-aware vs topology-blind HIOS-LP on a 2x2 cluster",
		XLabel: "inter_node_factor",
		YLabel: "latency_ms",
	}
	aware := make([]*stats.Sample, len(factors))
	blind := make([]*stats.Sample, len(factors))
	for i := range factors {
		aware[i] = &stats.Sample{}
		blind[i] = &stats.Sample{}
	}
	type row struct {
		aware, blind []float64
	}
	rows, err := parallel.Map(opt.Seeds, opt.Workers, func(t int) (row, error) {
		cfg := randdag.Paper()
		cfg.Seed = int64(t) + 1
		g, err := randdag.Generate(cfg)
		if err != nil {
			return row{}, err
		}
		flat := cost.FromGraph(g, cost.DefaultContention())
		// Blind: one schedule decided on the flat model, reused at
		// every factor (the scheduler does not know the topology).
		blindRes, err := Run(AlgoHIOSLP, g, flat, RunConfig{GPUs: nodes * perNode})
		if err != nil {
			return row{}, err
		}
		r := row{aware: make([]float64, len(factors)), blind: make([]float64, len(factors))}
		for i, f := range factors {
			topo := cost.WithTopology(flat, gpu.TwoLevel(nodes, perNode, f))
			awareRes, err := Run(AlgoHIOSLP, g, topo, RunConfig{GPUs: nodes * perNode})
			if err != nil {
				return row{}, err
			}
			r.aware[i] = float64(awareRes.Latency)
			blindLat, err := sched.Latency(g, topo, blindRes.Schedule)
			if err != nil {
				return row{}, err
			}
			r.blind[i] = float64(blindLat)
		}
		return r, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for _, r := range rows {
		for i := range factors {
			aware[i].Add(r.aware[i])
			blind[i].Add(r.blind[i])
		}
	}
	fig.Series = []Series{
		collect("hios-lp-topology-aware", factors, aware),
		collect("hios-lp-topology-blind", factors, blind),
	}
	return fig, nil
}
