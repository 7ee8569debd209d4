package experiments

import (
	"errors"
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/bnb"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/stats"
)

// OptimalityGap is a study the paper does not include but its claims
// invite: on graphs small enough for the exact branch-and-bound reference
// (package bnb), how far are HIOS-LP's and HIOS-MR's inter-GPU mappings
// from the optimal placement under the same temporal rule? The result is
// a figure with the mean latency ratio heuristic/optimal per GPU count
// (1.0 = always optimal).
func OptimalityGap(seeds, ops int) (Figure, error) {
	if ops <= 0 {
		ops = 18
	}
	if ops > bnb.MaxOps {
		return Figure{}, fmt.Errorf("experiments: %d ops exceeds the exact-search limit %d", ops, bnb.MaxOps)
	}
	if seeds <= 0 {
		seeds = 10
	}
	xs := []float64{2, 3, 4}
	fig := Figure{
		ID:     "OptimalityGap",
		Title:  fmt.Sprintf("heuristic/optimal latency ratio on %d-operator models", ops),
		XLabel: "gpus",
		YLabel: "latency ratio (1.0 = optimal)",
	}
	gapLP := make([]*stats.Sample, len(xs))
	gapMR := make([]*stats.Sample, len(xs))
	for i := range xs {
		gapLP[i] = &stats.Sample{}
		gapMR[i] = &stats.Sample{}
	}
	// One pool task per (gpu count, seed) cell; the exact branch-and-bound
	// reference dominates each task's cost, so the cells parallelize well.
	cells, err := parallel.Map(len(xs)*seeds, 0, func(t int) ([2]float64, error) {
		gpus := int(xs[t/seeds])
		cfg := randdag.Paper()
		cfg.Ops = ops
		cfg.Layers = 4
		cfg.Deps = 2 * ops
		cfg.Seed = int64(t%seeds) + 1
		g, err := randdag.Generate(cfg)
		if err != nil {
			return [2]float64{}, err
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		opt, err := bnb.Schedule(g, m, bnb.Options{GPUs: gpus, MaxNodes: 20_000_000})
		if err != nil && !errors.Is(err, bnb.ErrTruncated) {
			return [2]float64{}, err
		}
		lpRes, err := lp.Schedule(g, m, lp.Options{GPUs: gpus})
		if err != nil {
			return [2]float64{}, err
		}
		mrRes, err := mr.Schedule(g, m, mr.Options{GPUs: gpus})
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{lpRes.Latency.Ratio(opt.Latency), mrRes.Latency.Ratio(opt.Latency)}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for t, ratios := range cells {
		i := t / seeds
		gapLP[i].Add(ratios[0])
		gapMR[i].Add(ratios[1])
	}
	fig.Series = []Series{
		collect(AlgoInterLP, xs, gapLP),
		collect(AlgoInterMR, xs, gapMR),
	}
	return fig, nil
}
