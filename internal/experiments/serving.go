package experiments

import (
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// ServeSweepOptions parameterizes the online-serving attainment sweep.
// The zero value of every field selects a documented default; Validate
// reports structural violations.
type ServeSweepOptions struct {
	// Seeds is the number of independent arrival traces averaged per
	// data point (0 = 8).
	Seeds int
	// GPUs is M, the devices one pipeline replica spans under the
	// multi-GPU schedulers (0 = 2).
	GPUs int
	// GPUBudget is the total device count of the deployment; each
	// scheduler gets GPUBudget / UsedGPUs identical replicas, so a
	// scheduler that squeezes the same latency out of fewer devices
	// earns proportionally more replicas (0 = 4).
	GPUBudget int
	// Window is the sliding-window size w of the schedulers (0 =
	// default).
	Window int
	// Workers bounds the sweep's worker pool exactly as
	// SimOptions.Workers does (0 = GOMAXPROCS, 1 = serial reference).
	Workers int
	// Loads are the offered-load points in multiples of the best
	// scheduler's aggregate capacity (nil = 0.25, 0.5, 0.7, 0.85, 1.0).
	Loads []float64
	// Horizon is the arrival window of each simulated trace (0 = 1500
	// ms).
	Horizon units.Millis
	// Ops sizes the random model (0 = the paper's 200; tests shrink it
	// to keep the IOS DP fast).
	Ops int
}

func (o *ServeSweepOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	if o.GPUs <= 0 {
		o.GPUs = 2
	}
	if o.GPUBudget <= 0 {
		o.GPUBudget = 4
	}
	if len(o.Loads) == 0 {
		// Up to the best scheduler's saturation point. x = 1 means the
		// best deployment is exactly saturated — and every worse
		// scheduler is overloaded, which is where the policies separate.
		// Past saturation EDF degrades below FIFO (the classic
		// overloaded-EDF domino effect, every request served closest to
		// its deadline and missing anyway), so deeper overload is left
		// to explicit Loads.
		o.Loads = []float64{0.25, 0.5, 0.7, 0.85, 1.0}
	}
	// Exact zero test: the zero value selects the default.
	if o.Horizon == 0 { //lint:floatexact zero is the unset-option sentinel, not a computed value
		o.Horizon = units.Millis(1500)
	}
	if o.Ops <= 0 {
		o.Ops = 200
	}
}

// Validate reports the first structural violation of the sweep options.
// Zero values are valid (defaults); negatives and malformed load lists
// are not.
func (o ServeSweepOptions) Validate() error {
	if o.Seeds < 0 || o.GPUs < 0 || o.GPUBudget < 0 || o.Window < 0 || o.Workers < 0 || o.Ops < 0 {
		return fmt.Errorf("experiments: negative serve-sweep option: %+v", o)
	}
	if h := float64(o.Horizon); !(h >= 0) || math.IsInf(h, 1) {
		return fmt.Errorf("experiments: serve-sweep horizon %g, want a finite value >= 0", h)
	}
	for i, l := range o.Loads {
		if !(l > 0) || math.IsInf(l, 1) {
			return fmt.Errorf("experiments: load point %d is %g, want a finite value > 0", i, l)
		}
	}
	return nil
}

// AttainmentVsLoad is the serving counterpart of the §V latency sweeps:
// SLO attainment versus offered load for every real-system scheduler ×
// dispatch policy. One random model (the §V-A generator) is scheduled
// once per algorithm; each schedule becomes a deployment of identical
// pipeline replicas within the shared GPU budget, serving two open-loop
// tenants — an interactive class with a tight deadline taking 60% of the
// traffic and a batch class with a loose deadline taking the rest. The
// x axis is offered load as a multiple of the best scheduler's capacity,
// so x = 1 saturates the best deployment and overloads the others:
// scheduler quality shows up directly as serving capacity.
//
// Every (load, seed) cell is one task on the deterministic pool and the
// merge is index-ordered, so the figure is byte-identical at any Workers
// width. Tenant arrival traces depend only on the seed and the rate;
// policies reorder service, never arrivals.
func AttainmentVsLoad(opt ServeSweepOptions) (Figure, error) {
	if err := opt.Validate(); err != nil {
		return Figure{}, err
	}
	opt.fill()

	cfg := randdag.Paper()
	cfg.Ops = opt.Ops
	cfg.Deps = 2 * opt.Ops
	if cfg.Layers > cfg.Ops {
		cfg.Layers = cfg.Ops
	}
	g, err := randdag.Generate(cfg)
	if err != nil {
		return Figure{}, fmt.Errorf("AttainmentVsLoad: %w", err)
	}
	m := cost.FromGraph(g, cost.DefaultContention())

	algos := RealSystemAlgorithms
	models := make([]cluster.ServeModel, len(algos))
	bestCap := 0.0
	minLat := units.Millis(0)
	for ai, algo := range algos {
		res, err := Run(algo, g, m, RunConfig{GPUs: opt.GPUs, Window: opt.Window})
		if err != nil {
			return Figure{}, fmt.Errorf("AttainmentVsLoad: %s: %w", algo, err)
		}
		dm, err := cluster.NewServeModel(algo, g, m, res.Schedule)
		if err != nil {
			return Figure{}, fmt.Errorf("AttainmentVsLoad: %s: %w", algo, err)
		}
		used := res.Schedule.UsedGPUs()
		if used < 1 {
			used = 1
		}
		if dm.Replicas = opt.GPUBudget / used; dm.Replicas < 1 {
			dm.Replicas = 1
		}
		if c := dm.Capacity(); c > bestCap {
			bestCap = c
		}
		if ai == 0 || dm.Latency < minLat {
			minLat = dm.Latency
		}
		models[ai] = dm
	}
	// Shared absolute SLOs, derived from the best single-request latency
	// so they are demanding but feasible for a well-scheduled deployment.
	tight := minLat.Scale(4)
	loose := minLat.Scale(12)

	policies := cluster.ServePolicies()
	series := make([]string, 0, len(algos)*len(policies))
	for _, a := range algos {
		for _, p := range policies {
			series = append(series, a+"/"+string(p))
		}
	}
	samples := make([][]*stats.Sample, len(series))
	for si := range samples {
		samples[si] = make([]*stats.Sample, len(opt.Loads))
		for i := range opt.Loads {
			samples[si][i] = &stats.Sample{}
		}
	}

	cells, err := parallel.Map(len(opt.Loads)*opt.Seeds, opt.Workers, func(t int) ([]float64, error) {
		i, seed := t/opt.Seeds, int64(t%opt.Seeds)+1
		lambda := opt.Loads[i] * bestCap
		atts := make([]float64, 0, len(series))
		for ai := range algos {
			for _, p := range policies {
				rep, err := cluster.Serve(cluster.ServeOptions{
					Models: []cluster.ServeModel{models[ai]},
					Tenants: []cluster.Tenant{
						{Name: "interactive", Deadline: tight, Rate: 0.6 * lambda},
						{Name: "batch", Deadline: loose, Rate: 0.4 * lambda},
					},
					Policy:  p,
					Horizon: opt.Horizon,
					Seed:    seed,
				})
				if err != nil {
					return nil, fmt.Errorf("AttainmentVsLoad: %s/%s load=%g seed=%d: %w",
						algos[ai], p, opt.Loads[i], seed, err)
				}
				atts = append(atts, rep.Attainment)
			}
		}
		return atts, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for t, atts := range cells {
		i := t / opt.Seeds
		for si := range series {
			samples[si][i].Add(atts[si])
		}
	}
	fig := Figure{
		ID:     "Serve1",
		Title:  "SLO attainment vs offered load (scheduler x policy)",
		XLabel: "offered_load",
		YLabel: "slo_attainment",
	}
	for si, label := range series {
		fig.Series = append(fig.Series, collect(label, opt.Loads, samples[si]))
	}
	return fig, nil
}
