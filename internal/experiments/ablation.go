package experiments

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// This file holds the ablation studies DESIGN.md calls out: sweeps over
// the design parameters the paper fixes (window size w, IOS pruning) and
// over the implementation choices the paper only discusses (per-message
// transfer overhead, the §VI-E NCCL remark). They are exposed through
// cmd/hios-exp -fig ablation and bench_test.go.

// AblationWindow sweeps the intra-GPU sliding-window size w for HIOS-LP
// on random models, running the LP mapping pass once per model and
// Algorithm 2 once per w: w = 1 fuses nothing (the "inter-GPU w/ LP"
// curve), larger windows admit wider concurrent stages at higher
// scheduling cost. Any w >= 2 improves on w = 1 because the
// pass only commits improvements; across different w the sweep is not
// strictly monotone (the pass is greedy — an early wide fusion can
// foreclose a better pair of narrow ones), which is itself a finding
// worth having on record.
func AblationWindow(opt SimOptions) (Figure, error) {
	opt.fill()
	ws := []float64{1, 2, 3, 4, 6, 8}
	fig := Figure{
		ID:     "AblationWindow",
		Title:  "HIOS-LP latency vs sliding-window size w",
		XLabel: "window",
		YLabel: "latency_ms",
	}
	samples := make([]*stats.Sample, len(ws))
	for i := range samples {
		samples[i] = &stats.Sample{}
	}
	rows, err := parallel.Map(opt.Seeds, opt.Workers, func(t int) ([]float64, error) {
		seed := int64(t) + 1
		cfg := randdag.Paper()
		cfg.Seed = seed
		g, err := randdag.Generate(cfg)
		if err != nil {
			return nil, err
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		inter, err := lp.Schedule(g, m, lp.Options{GPUs: opt.GPUs})
		if err != nil {
			return nil, fmt.Errorf("ablation window seed=%d: %w", seed, err)
		}
		lats := make([]float64, len(ws))
		for i, w := range ws {
			res, err := window.Parallelize(g, m, inter.Schedule, int(w))
			if err != nil {
				return nil, fmt.Errorf("ablation window w=%g seed=%d: %w", w, seed, err)
			}
			lats[i] = float64(res.Latency)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for _, lats := range rows {
		for i := range ws {
			samples[i].Add(lats[i])
		}
	}
	fig.Series = []Series{collect(AlgoHIOSLP, ws, samples)}
	return fig, nil
}

// AblationIOSPruning sweeps IOS's schedule-pruning aggressiveness (the
// prune-window r) on random models, reporting both the achieved latency
// and how close narrow pruning stays to the widest setting — the
// latency/scheduling-cost trade-off of Ding et al.'s pruning strategy.
func AblationIOSPruning(opt SimOptions) (Figure, error) {
	opt.fill()
	rs := []float64{2, 4, 6, 8, 10}
	fig := Figure{
		ID:     "AblationIOSPruning",
		Title:  "IOS latency vs prune-window r",
		XLabel: "prune_window",
		YLabel: "latency_ms",
	}
	samples := make([]*stats.Sample, len(rs))
	for i := range samples {
		samples[i] = &stats.Sample{}
	}
	rows, err := parallel.Map(opt.Seeds, opt.Workers, func(t int) ([]float64, error) {
		seed := int64(t) + 1
		cfg := randdag.Paper()
		cfg.Seed = seed
		g, err := randdag.Generate(cfg)
		if err != nil {
			return nil, err
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		lats := make([]float64, len(rs))
		for i, r := range rs {
			res, err := ios.Schedule(g, m, ios.Options{PruneWindow: int(r)})
			if err != nil {
				return nil, fmt.Errorf("ablation ios r=%g seed=%d: %w", r, seed, err)
			}
			lats[i] = float64(res.Latency)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for _, lats := range rows {
		for i := range rs {
			samples[i].Add(lats[i])
		}
	}
	fig.Series = []Series{collect(AlgoIOS, rs, samples)}
	return fig, nil
}

// AblationLinkContention quantifies how much of the measured latency of
// each multi-GPU scheduler is due to transfers contending for the single
// NVLink bridge: the same schedules are simulated with independent
// (cost-model-ideal) links and with the bridge serialized. HIOS-MR's
// scattered placements suffer more, which is the mechanism behind the
// paper's observed HIOS-LP > HIOS-MR gap on real hardware (§VI-D).
func AblationLinkContention(b Benchmark, size int) (Figure, error) {
	plat := gpu.DualA40()
	net, err := BuildBenchmark(b, plat, size)
	if err != nil {
		return Figure{}, err
	}
	m := cost.FromGraph(net.G, cost.DefaultContention())
	fig := Figure{
		ID:     "AblationLinkContention",
		Title:  fmt.Sprintf("link-contention penalty on %s@%d", b, size),
		XLabel: "serialized",
		YLabel: "latency_ms",
	}
	res, _, err := runAll(multiGPU, net.G, m, RunConfig{GPUs: plat.GPUs})
	if err != nil {
		return Figure{}, err
	}
	for ai, a := range multiGPU {
		s := Series{Label: a}
		for i, serialize := range []bool{false, true} {
			tr, err := sim.RunOpts(net.G, m, res[ai].Schedule, sim.Options{SerializeLinks: serialize})
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(i), Mean: float64(tr.Latency)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// NCCLOverlap is the §VI-E what-if: the paper suggests that replacing
// CUDA-aware MPI with NCCL could hide the launch latency of kernels that
// wait on inter-GPU transfers. We model NCCL as the same wire with
// (near-)zero software latency and re-measure Fig. 12's NASNet small-input
// case, where the paper observed HIOS-LP losing 5.4% to IOS because of
// exactly this overhead.
func NCCLOverlap(b Benchmark, size int) (Figure, error) {
	fig := Figure{
		ID:     "NCCLOverlap",
		Title:  fmt.Sprintf("MPI vs NCCL-style transfers on %s@%d", b, size),
		XLabel: "transport", // 0 = CUDA-aware MPI, 1 = NCCL-style
		YLabel: "latency_ms",
	}
	for i, link := range []gpu.Link{gpu.NVLinkBridge(), ncclLink()} {
		plat := gpu.DualA40()
		plat.Link = link
		net, err := BuildBenchmark(b, plat, size)
		if err != nil {
			return Figure{}, err
		}
		m := cost.FromGraph(net.G, cost.DefaultContention())
		for _, a := range []string{AlgoIOS, AlgoHIOSLP} {
			lat, err := measure(a, net, m, plat.GPUs)
			if err != nil {
				return Figure{}, err
			}
			found := false
			for j := range fig.Series {
				if fig.Series[j].Label == a {
					fig.Series[j].Points = append(fig.Series[j].Points, Point{X: float64(i), Mean: lat})
					found = true
				}
			}
			if !found {
				fig.Series = append(fig.Series, Series{Label: a, Points: []Point{{X: float64(i), Mean: lat}}})
			}
		}
	}
	return fig, nil
}

// ncclLink models an NVLink bridge driven by NCCL: the same bandwidth
// with the MPI software latency almost eliminated (launch hiding).
func ncclLink() gpu.Link {
	l := gpu.NVLinkBridge()
	l.Name = "NVLink bridge (NCCL-style)"
	l.Latency = units.Millis(0.002)
	return l
}

// AblationIntraGPU contrasts the paper's sliding-window pass (Algorithm
// 2) with the counterfactual it argues against in §IV-B: running the
// exact IOS dynamic program independently per GPU, blind to cross-GPU
// dependencies. Both start from the same inter-GPU LP placement. The
// figure reports mean latency for three intra-GPU strategies: none
// (inter-GPU only), Algorithm 2, and per-GPU IOS.
func AblationIntraGPU(opt SimOptions) (Figure, error) {
	opt.fill()
	fig := Figure{
		ID:     "AblationIntraGPU",
		Title:  "intra-GPU strategy on top of inter-GPU LP",
		XLabel: "strategy", // 0 = none, 1 = Algorithm 2, 2 = per-GPU IOS
		YLabel: "latency_ms",
	}
	labels := []string{"none", "algorithm-2", "per-gpu-ios"}
	samples := make([]*stats.Sample, len(labels))
	for i := range samples {
		samples[i] = &stats.Sample{}
	}
	rows, err := parallel.Map(opt.Seeds, opt.Workers, func(t int) ([3]float64, error) {
		cfg := randdag.Paper()
		cfg.Seed = int64(t) + 1
		g, err := randdag.Generate(cfg)
		if err != nil {
			return [3]float64{}, err
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		inter, err := lp.Schedule(g, m, lp.Options{GPUs: opt.GPUs})
		if err != nil {
			return [3]float64{}, err
		}
		alg2, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
		if err != nil {
			return [3]float64{}, err
		}
		perGPU, err := window.ExactPerGPU(g, m, inter.Schedule, ios.Options{})
		if err != nil {
			return [3]float64{}, err
		}
		return [3]float64{float64(inter.Latency), float64(alg2.Latency), float64(perGPU.Latency)}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for _, lats := range rows {
		for i := range samples {
			samples[i].Add(lats[i])
		}
	}
	for i, l := range labels {
		fig.Series = append(fig.Series, Series{
			Label:  l,
			Points: []Point{{X: float64(i), Mean: samples[i].Mean(), Std: samples[i].Std()}},
		})
	}
	return fig, nil
}
