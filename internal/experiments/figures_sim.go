package experiments

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/stats"
)

// SimOptions parameterizes the §V simulation sweeps.
type SimOptions struct {
	// Seeds is the number of random model instances per data point
	// (the paper uses 30).
	Seeds int
	// GPUs is M for the fixed-GPU sweeps (the paper uses 4).
	GPUs int
	// Window is the sliding-window size w (0 = default).
	Window int
	// Workers bounds the sweep worker pool: every distinct graph and
	// every (x, seed) cell of a sweep is an independent task scheduled on
	// up to Workers goroutines.
	// 0 selects GOMAXPROCS; 1 forces the serial reference path. Results
	// are merged in index order, so the figure is byte-identical at any
	// width (see internal/parallel and DESIGN.md §7).
	Workers int
}

// DefaultSim returns the paper's §V-A settings.
func DefaultSim() SimOptions { return SimOptions{Seeds: 30, GPUs: 4} }

func (o *SimOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 30
	}
	if o.GPUs <= 0 {
		o.GPUs = 4
	}
}

// Validate reports the first structural violation of the sweep options.
// Zero values are valid (they select the documented defaults).
func (o SimOptions) Validate() error {
	if o.Seeds < 0 || o.GPUs < 0 || o.Window < 0 || o.Workers < 0 {
		return fmt.Errorf("experiments: negative sim option: %+v", o)
	}
	return nil
}

// graphKey identifies everything the single-GPU algorithms depend on: the
// generated graph (and with it the cost model) and the IOS options.
type graphKey struct {
	cfg randdag.Config
	ios ios.Options
}

// sweep runs all six algorithms over a family of random-DAG configurations
// and aggregates latencies per x value. cfgAt generates the model family
// at x; runAt supplies the scheduler configuration at x (Fig. 7 varies the
// GPU count along x, the other sweeps keep it fixed).
//
// The work is one task list on the deterministic pool. The first tasks
// are one per distinct graphKey, in the order the (x, seed) cells first
// use it: each runs Sequential and IOS, which read no GPU count, so
// Fig. 7's six cells per seed share one IOS solve. The remaining tasks
// are one per (x, seed) cell and run the four multi-GPU algorithms, the
// inter-GPU passes once each (runAll). Per-graph tasks come first so the
// costly cold IOS solve starts while other workers run cells. Every task
// derives a private graph and cost model from its seed. The results are
// merged serially in (x, seed, algorithm) order — the exact accumulation
// order of the single-threaded loop — so the figure is byte-identical at
// any pool width.
func sweep(id, title, xlabel string, xs []float64,
	cfgAt func(x float64, seed int64) randdag.Config,
	runAt func(x float64) RunConfig,
	opt SimOptions) (Figure, error) {

	if err := opt.Validate(); err != nil {
		return Figure{}, err
	}
	opt.fill()
	fig := Figure{ID: id, Title: title, XLabel: xlabel, YLabel: "latency_ms"}
	samples := make(map[string][]*stats.Sample, len(AllAlgorithms))
	for _, a := range AllAlgorithms {
		samples[a] = make([]*stats.Sample, len(xs))
		for i := range xs {
			samples[a][i] = &stats.Sample{}
		}
	}

	cellOf := func(c int) (x float64, seed int64) {
		return xs[c/opt.Seeds], int64(c%opt.Seeds) + 1
	}
	nCells := len(xs) * opt.Seeds
	keyOf := make([]int, nCells) // cell -> index of its graphKey
	var firstCell []int          // graphKey index -> first cell using it
	keyIdx := make(map[graphKey]int)
	for c := range keyOf {
		x, seed := cellOf(c)
		k := graphKey{cfgAt(x, seed), runAt(x).IOS}
		ki, ok := keyIdx[k]
		if !ok {
			ki = len(firstCell)
			keyIdx[k] = ki
			firstCell = append(firstCell, c)
		}
		keyOf[c] = ki
	}
	nKeys := len(firstCell)

	out, err := parallel.Map(nKeys+nCells, opt.Workers, func(t int) ([]float64, error) {
		algos, c := multiGPU, t-nKeys
		if t < nKeys {
			algos, c = singleGPU, firstCell[t]
		}
		x, seed := cellOf(c)
		g, err := randdag.Generate(cfgAt(x, seed))
		if err != nil {
			return nil, fmt.Errorf("%s: x=%g seed=%d: %w", id, x, seed, err)
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		res, a, err := runAll(algos, g, m, runAt(x))
		if err != nil {
			return nil, fmt.Errorf("%s: %s x=%g seed=%d: %w", id, a, x, seed, err)
		}
		lats := make([]float64, len(res))
		for i, r := range res {
			lats[i] = float64(r.Latency)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for c := range nCells {
		i := c / opt.Seeds
		for ai, a := range singleGPU {
			samples[a][i].Add(out[keyOf[c]][ai])
		}
		for ai, a := range multiGPU {
			samples[a][i].Add(out[nKeys+c][ai])
		}
	}
	for _, a := range AllAlgorithms {
		fig.Series = append(fig.Series, collect(a, xs, samples[a]))
	}
	return fig, nil
}

// Fig7 reproduces Fig. 7: inference latency of the six scheduling
// algorithms as the number of GPUs grows from 2 to 12 (random 200-operator
// models, 14 layers, 400 dependencies, p = 0.8).
func Fig7(opt SimOptions) (Figure, error) {
	xs := []float64{2, 4, 6, 8, 10, 12}
	return sweep("Fig7", "latency vs number of GPUs", "gpus", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Seed = seed
			return cfg
		},
		func(x float64) RunConfig {
			return RunConfig{GPUs: int(x), Window: opt.Window}
		}, opt)
}

// Fig8 reproduces Fig. 8: latency vs number of operators (100..400 step
// 50, dependencies = 2x operators, 4 GPUs).
func Fig8(opt SimOptions) (Figure, error) {
	xs := []float64{100, 150, 200, 250, 300, 350, 400}
	return sweep("Fig8", "latency vs number of operators", "operators", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Ops = int(x)
			cfg.Deps = 2 * cfg.Ops
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig9 reproduces Fig. 9: latency vs number of inter-operator
// dependencies (400..600 step 50, 200 operators, 4 GPUs).
func Fig9(opt SimOptions) (Figure, error) {
	xs := []float64{400, 450, 500, 550, 600}
	return sweep("Fig9", "latency vs number of dependencies", "dependencies", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Deps = int(x)
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig10 reproduces Fig. 10: latency vs the number of operator layers
// (6..22 step 4), i.e. the degree of parallelism in the model.
func Fig10(opt SimOptions) (Figure, error) {
	xs := []float64{6, 10, 14, 18, 22}
	return sweep("Fig10", "latency vs number of layers", "layers", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Layers = int(x)
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig11 reproduces Fig. 11: latency vs the communication/computation time
// ratio p (0.4..1.2 step 0.2).
func Fig11(opt SimOptions) (Figure, error) {
	xs := []float64{0.4, 0.6, 0.8, 1.0, 1.2}
	return sweep("Fig11", "latency vs communication ratio p", "p", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.CommRatio = x
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

func fixedRun(opt SimOptions) func(float64) RunConfig {
	opt.fill()
	return func(float64) RunConfig {
		return RunConfig{GPUs: opt.GPUs, Window: opt.Window}
	}
}

// Fig9DependencyBound re-runs the Fig. 9 sweep on a dependency-bound
// instance family: the extra dependencies connect adjacent layers only
// (concentrated fan-in), so operators genuinely wait on many
// previous-layer finishes plus transfers. On this family — unlike the
// §V-A uniform family, which our schedulers drive to the load bound —
// the paper's declining-speedup trend reappears. See EXPERIMENTS.md.
func Fig9DependencyBound(opt SimOptions) (Figure, error) {
	xs := []float64{400, 450, 500, 550, 600}
	return sweep("Fig9-adjacent", "latency vs dependencies (adjacent-layer fan-in)", "dependencies", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Deps = int(x)
			cfg.Seed = seed
			cfg.AdjacentOnly = true
			return cfg
		}, fixedRun(opt), opt)
}
