package experiments

import (
	"fmt"
	"slices"
	"strings"

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

// MultiGPU reports whether the algorithm reads the GPU count (and so
// needs at least one GPU).
func MultiGPU(algo string) bool { return slices.Contains(multiGPU, algo) }

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

// interOf maps each HIOS-* algorithm to the Inter-* algorithm whose
// schedule its sliding-window pass refines.
var interOf = map[string]string{AlgoHIOSLP: AlgoInterLP, AlgoHIOSMR: AlgoInterMR}

// Run executes the named algorithm on g under cost model m. This is the
// one place HIOS-LP and HIOS-MR are defined: the sliding-window intra-GPU
// pass (Algorithm 2) over the Inter-LP / Inter-MR schedule, with window 0
// selecting window.DefaultSize.
func Run(algo string, g *graph.Graph, m cost.Model, cfg RunConfig) (sched.Result, error) {
	return runFrom(algo, g, m, cfg, nil)
}

// runFrom is Run, except that a HIOS-* algorithm refines inter when it is
// non-nil instead of running its inter-GPU pass again.
func runFrom(algo string, g *graph.Graph, m cost.Model, cfg RunConfig, inter *sched.Result) (sched.Result, error) {
	switch algo {
	case AlgoSequential:
		return seq.Schedule(g, m)
	case AlgoIOS:
		return ios.Schedule(g, m, cfg.IOS)
	case AlgoInterLP:
		return lp.Schedule(g, m, lp.Options{GPUs: cfg.GPUs})
	case AlgoInterMR:
		return mr.Schedule(g, m, mr.Options{GPUs: cfg.GPUs})
	case AlgoHIOSLP, AlgoHIOSMR:
		if inter == nil {
			res, err := Run(interOf[algo], g, m, cfg)
			if err != nil {
				return sched.Result{}, err
			}
			inter = &res
		}
		w := cfg.Window
		switch {
		case w < 0:
			return sched.Result{}, fmt.Errorf("%s: negative window %d", strings.TrimPrefix(algo, "hios-"), w)
		case w == 0:
			w = window.DefaultSize
		}
		return window.Parallelize(g, m, inter.Schedule, w)
	default:
		return sched.Result{}, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
}

// runAll runs the named algorithms on one graph and returns their results
// in list order: the results of Run for each name, bit for bit. When the
// list holds both an Inter-* algorithm and its HIOS-* twin, the inter-GPU
// pass runs once and the HIOS-* result refines its schedule. On error,
// failed names the first algorithm in list order that failed, as the
// serial loop over Run would.
func runAll(algos []string, g *graph.Graph, m cost.Model, cfg RunConfig) (res []sched.Result, failed string, err error) {
	res = make([]sched.Result, len(algos))
	done := make([]bool, len(algos))
	for i, a := range algos {
		if done[i] {
			continue
		}
		var inter *sched.Result
		if j := slices.Index(algos, interOf[a]); j >= 0 { // -1 unless a is HIOS-* with its twin listed
			if !done[j] {
				if res[j], err = Run(algos[j], g, m, cfg); err != nil {
					return nil, a, err
				}
				done[j] = true
			}
			inter = &res[j]
		}
		if res[i], err = runFrom(a, g, m, cfg, inter); err != nil {
			return nil, a, err
		}
		done[i] = true
	}
	return res, "", nil
}
