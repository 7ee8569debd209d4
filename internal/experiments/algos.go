package experiments

import (
	"fmt"
	"slices"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/sched/seq"
	"github.com/shus-lab/hios/internal/sched/window"
)

// Algorithm labels, matching the paper's legends (§V-B).
const (
	AlgoSequential = "sequential"
	AlgoIOS        = "ios"
	AlgoHIOSLP     = "hios-lp"
	AlgoHIOSMR     = "hios-mr"
	AlgoInterLP    = "inter-gpu-lp"
	AlgoInterMR    = "inter-gpu-mr"
)

// AllAlgorithms is the six-way comparison of the simulation study.
var AllAlgorithms = []string{
	AlgoSequential, AlgoIOS, AlgoHIOSLP, AlgoHIOSMR, AlgoInterLP, AlgoInterMR,
}

// singleGPU are the algorithms of AllAlgorithms that read neither the
// GPU count nor the window, and multiGPU the ones that do.
var (
	singleGPU = []string{AlgoSequential, AlgoIOS}
	multiGPU  = []string{AlgoHIOSLP, AlgoHIOSMR, AlgoInterLP, AlgoInterMR}
)

// RealSystemAlgorithms is the four-way comparison of Fig. 12.
var RealSystemAlgorithms = []string{AlgoSequential, AlgoIOS, AlgoHIOSLP, AlgoHIOSMR}

// RunConfig parameterizes an algorithm comparison run.
type RunConfig struct {
	// GPUs is M for the multi-GPU schedulers.
	GPUs int
	// Window is the sliding-window size w; zero selects the default.
	Window int
	// IOS carries the IOS pruning parameters; the zero value selects
	// defaults.
	IOS ios.Options
}

// Run executes the named algorithm on g under cost model m.
func Run(algo string, g *graph.Graph, m cost.Model, cfg RunConfig) (sched.Result, error) {
	switch algo {
	case AlgoSequential:
		return seq.Schedule(g, m)
	case AlgoIOS:
		return ios.Schedule(g, m, cfg.IOS)
	case AlgoHIOSLP:
		return lp.Schedule(g, m, lp.Options{GPUs: cfg.GPUs, Window: cfg.Window})
	case AlgoHIOSMR:
		return mr.Schedule(g, m, mr.Options{GPUs: cfg.GPUs, Window: cfg.Window})
	case AlgoInterLP:
		return lp.Schedule(g, m, lp.Options{GPUs: cfg.GPUs, InterOnly: true})
	case AlgoInterMR:
		return mr.Schedule(g, m, mr.Options{GPUs: cfg.GPUs, InterOnly: true})
	default:
		return sched.Result{}, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
}

// interTwin maps each HIOS-* algorithm to the Inter-* algorithm whose
// schedule its sliding-window pass refines.
var interTwin = map[string]string{AlgoHIOSLP: AlgoInterLP, AlgoHIOSMR: AlgoInterMR}

// runAll runs the named algorithms on one graph and returns their results
// in list order: the results of Run for each name, bit for bit. When the
// list holds both an Inter-* algorithm and its HIOS-* twin, the inter-GPU
// pass runs once and the HIOS-* result is window.Parallelize over its
// schedule — the same call lp.Schedule and mr.Schedule make after their
// own inter pass (DESIGN.md §7). On error, failed names the first
// algorithm in list order that failed, as the serial loop over Run would.
func runAll(algos []string, g *graph.Graph, m cost.Model, cfg RunConfig) (res []sched.Result, failed string, err error) {
	res = make([]sched.Result, len(algos))
	done := make([]bool, len(algos))
	for i, a := range algos {
		if done[i] {
			continue
		}
		j := -1
		if inter, ok := interTwin[a]; ok {
			j = slices.Index(algos, inter)
		}
		if j < 0 {
			if res[i], err = Run(a, g, m, cfg); err != nil {
				return nil, a, err
			}
			done[i] = true
			continue
		}
		if err := validateHIOS(a, cfg); err != nil {
			return nil, a, err
		}
		if !done[j] {
			if res[j], err = Run(algos[j], g, m, cfg); err != nil {
				return nil, a, err
			}
			done[j] = true
		}
		w := cfg.Window
		if w == 0 {
			w = window.DefaultSize
		}
		if res[i], err = window.Parallelize(g, m, res[j].Schedule, w); err != nil {
			return nil, a, err
		}
		done[i] = true
	}
	return res, "", nil
}

// validateHIOS checks the options Run would pass to a HIOS-* scheduler,
// so runAll rejects what Run rejects, with the same error.
func validateHIOS(algo string, cfg RunConfig) error {
	if algo == AlgoHIOSLP {
		return lp.Options{GPUs: cfg.GPUs, Window: cfg.Window}.Validate()
	}
	return mr.Options{GPUs: cfg.GPUs, Window: cfg.Window}.Validate()
}
