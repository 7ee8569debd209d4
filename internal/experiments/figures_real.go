package experiments

import (
	"fmt"
	"time"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// Fig1Sizes are the probed input image sizes of Figs. 1 and 2.
var Fig1Sizes = []float64{8, 16, 32, 64, 128, 256, 512, 1024}

// paperConvKernel characterizes the §II-A probe: a 5x5 stride-1
// convolution over 48 input channels (48 output channels) at a square
// image size.
func paperConvKernel(size int) gpu.Kernel {
	out := float64(48 * size * size)
	return gpu.Kernel{
		FLOPs:   units.FLOPs(2 * 5 * 5 * 48 * out),
		Bytes:   units.Bytes(4 * (48*float64(size*size) + 5*5*48*48 + out)),
		Threads: out,
	}
}

// Fig1 reproduces Fig. 1: the ratio between sequential and parallel
// execution time of two identical convolutions on one A40, over input
// sizes. Ratios above 1 mean concurrency wins (small operators); below 1
// it loses (large operators). The paper's crossover falls between 64 and
// 128 pixels.
func Fig1() Figure {
	dev := gpu.A40()
	c := cost.DefaultContention()
	fig := Figure{
		ID:     "Fig1",
		Title:  "sequential/parallel latency ratio of two identical convolutions",
		XLabel: "image_size",
		YLabel: "seq/par ratio",
	}
	s := Series{Label: dev.Name}
	for _, size := range Fig1Sizes {
		k := paperConvKernel(int(size))
		t, u := dev.Time(k), dev.Utilization(k)
		seqT := 2 * t
		parT := c.StageTimeItems([]cost.Item{{Time: t, Util: u}, {Time: t, Util: u}})
		s.Points = append(s.Points, Point{X: size, Mean: seqT.Ratio(parT)})
	}
	fig.Series = []Series{s}
	return fig
}

// Fig2 reproduces Fig. 2: the ratio of input-tensor transfer time to
// convolution compute time across the three dual-GPU platforms. NVLink
// platforms must sit below the PCIe platform at every size.
func Fig2() Figure {
	fig := Figure{
		ID:     "Fig2",
		Title:  "transfer/compute time ratio across platforms",
		XLabel: "image_size",
		YLabel: "transfer/compute ratio",
	}
	for _, p := range []gpu.Platform{gpu.DualA40(), gpu.DualA5500(), gpu.DualV100S()} {
		s := Series{Label: p.Name}
		for _, size := range Fig1Sizes {
			k := paperConvKernel(int(size))
			inputBytes := units.Bytes(4 * 48 * size * size)
			s.Points = append(s.Points, Point{
				X:    size,
				Mean: p.Link.TransferTime(inputBytes).Ratio(p.Dev.Time(k)),
			})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Benchmark names the two CNN benchmarks.
type Benchmark string

// The paper's two benchmarks (§VI-B).
const (
	Inception Benchmark = "inception-v3"
	NASNet    Benchmark = "nasnet-a"
)

// DefaultSizes returns the input-size sweep of Fig. 12 for a benchmark:
// from the model's default size up to 2^K pixels.
func DefaultSizes(b Benchmark) []int {
	switch b {
	case Inception:
		return []int{299, 512, 1024, 2048}
	case NASNet:
		return []int{331, 512, 1024, 2048}
	default:
		return nil
	}
}

// BuildBenchmark constructs a benchmark network at an input size on a
// platform.
func BuildBenchmark(b Benchmark, p gpu.Platform, size int) (*model.Net, error) {
	switch b {
	case Inception:
		return model.InceptionV3(p.Dev, p.Link, size), nil
	case NASNet:
		return model.NASNet(p.Dev, p.Link, size), nil
	default:
		return nil, fmt.Errorf("experiments: unknown benchmark %q", b)
	}
}

// Fig12 reproduces Fig. 12: actual inference latency of one benchmark
// over input sizes under sequential, IOS, HIOS-LP and HIOS-MR scheduling
// on the dual-A40 platform.
func Fig12(b Benchmark, sizes []int) (Figure, error) { return fig12(b, sizes, 0) }

// fig12 runs one size per worker-pool task: every cell builds its own
// net and measures every algorithm, and the merge is index-ordered, so
// the figure is byte-identical at any pool width.
func fig12(b Benchmark, sizes []int, workers int) (Figure, error) {
	if sizes == nil {
		sizes = DefaultSizes(b)
	}
	plat := gpu.DualA40()
	fig := Figure{
		ID:     "Fig12-" + string(b),
		Title:  fmt.Sprintf("inference latency of %s on %s", b, plat.Name),
		XLabel: "input_size",
		YLabel: "latency_ms",
	}
	samples := make(map[string][]*stats.Sample)
	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}
	for _, a := range RealSystemAlgorithms {
		samples[a] = make([]*stats.Sample, len(sizes))
		for i := range sizes {
			samples[a][i] = &stats.Sample{}
		}
	}
	cells, err := parallel.Map(len(sizes), workers, func(i int) ([]float64, error) {
		net, err := BuildBenchmark(b, plat, sizes[i])
		if err != nil {
			return nil, err
		}
		m := cost.FromGraph(net.G, cost.DefaultContention())
		lats := make([]float64, len(RealSystemAlgorithms))
		for ai, a := range RealSystemAlgorithms {
			lat, err := measure(a, net, m, plat.GPUs)
			if err != nil {
				return nil, fmt.Errorf("Fig12 %s %s@%d: %w", a, b, sizes[i], err)
			}
			lats[ai] = lat
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for i, lats := range cells {
		for ai, a := range RealSystemAlgorithms {
			samples[a][i].Add(lats[ai])
		}
	}
	for _, a := range RealSystemAlgorithms {
		fig.Series = append(fig.Series, collect(a, xs, samples[a]))
	}
	return fig, nil
}

// measure produces the "actual inference latency" of a schedule the way
// the paper measures it: the scheduler optimizes against the analytic
// cost model (contention-free links), but the measurement happens on the
// platform, where concurrent transfers between a GPU pair share one
// NVLink bridge. The discrete-event simulator with serialized links plays
// the role of the testbed.
func measure(algo string, net *model.Net, m cost.Model, gpus int) (float64, error) {
	res, err := Run(algo, net.G, m, RunConfig{GPUs: gpus})
	if err != nil {
		return 0, err
	}
	return measured(net, m, res.Schedule)
}

// measured is measure's second half: the simulated latency of schedule s
// with the link bridge serialized.
func measured(net *model.Net, m cost.Model, s *sched.Schedule) (float64, error) {
	tr, err := sim.RunOpts(net.G, m, s, sim.Options{SerializeLinks: true})
	if err != nil {
		return 0, err
	}
	return float64(tr.Latency), nil
}

// Fig13 reproduces Fig. 13: the latency breakdown of all six algorithms
// for both benchmarks at their small (default) and largest input sizes.
// X positions are scenario indices: 0 = inception/small, 1 =
// inception/large, 2 = nasnet/small, 3 = nasnet/large.
func Fig13() (Figure, []string, error) { return fig13(0) }

// fig13 parallelizes over scenario cells exactly as fig12 does over
// sizes; the index-ordered merge keeps the figure byte-identical at any
// pool width.
func fig13(workers int) (Figure, []string, error) {
	plat := gpu.DualA40()
	type scenario struct {
		b    Benchmark
		size int
	}
	scenarios := []scenario{
		{Inception, 299}, {Inception, 2048},
		{NASNet, 331}, {NASNet, 2048},
	}
	labels := make([]string, len(scenarios))
	for i, sc := range scenarios {
		labels[i] = fmt.Sprintf("%s@%d", sc.b, sc.size)
	}
	fig := Figure{
		ID:     "Fig13",
		Title:  "performance gain breakdown (dual A40)",
		XLabel: "scenario",
		YLabel: "latency_ms",
	}
	series := make(map[string]*Series)
	for _, a := range AllAlgorithms {
		series[a] = &Series{Label: a}
	}
	cells, err := parallel.Map(len(scenarios), workers, func(i int) ([]float64, error) {
		sc := scenarios[i]
		net, err := BuildBenchmark(sc.b, plat, sc.size)
		if err != nil {
			return nil, err
		}
		m := cost.FromGraph(net.G, cost.DefaultContention())
		res, a, err := runAll(AllAlgorithms, net.G, m, RunConfig{GPUs: plat.GPUs})
		if err != nil {
			return nil, fmt.Errorf("Fig13 %s %s: %w", a, labels[i], err)
		}
		lats := make([]float64, len(AllAlgorithms))
		for ai, a := range AllAlgorithms {
			lat, err := measured(net, m, res[ai].Schedule)
			if err != nil {
				return nil, fmt.Errorf("Fig13 %s %s: %w", a, labels[i], err)
			}
			lats[ai] = lat
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, nil, err
	}
	for i := range scenarios {
		for ai, a := range AllAlgorithms {
			series[a].Points = append(series[a].Points, Point{X: float64(i), Mean: cells[i][ai]})
		}
	}
	for _, a := range AllAlgorithms {
		fig.Series = append(fig.Series, *series[a])
	}
	return fig, labels, nil
}

// SchedulingCost is one scheduler's optimization cost for Fig. 14.
type SchedulingCost struct {
	// AlgorithmMs is the measured wall time of the scheduling algorithm
	// itself.
	AlgorithmMs float64
	// ProfilingMs is the simulated time a real profiler would spend
	// measuring every distinct operator, operator group and transfer
	// the algorithm probed (warm-up + repetitions each).
	ProfilingMs float64
	// Probes counts distinct measurements.
	Probes int
}

// TotalMs is the total scheduling-optimization cost.
func (c SchedulingCost) TotalMs() float64 { return c.AlgorithmMs + c.ProfilingMs }

// MeasureSchedulingCost runs one algorithm on a benchmark at an input size
// behind a fresh profiling table and reports the Fig. 14 cost breakdown.
func MeasureSchedulingCost(algo string, b Benchmark, size int) (SchedulingCost, error) {
	plat := gpu.DualA40()
	net, err := BuildBenchmark(b, plat, size)
	if err != nil {
		return SchedulingCost{}, err
	}
	inner := cost.FromGraph(net.G, cost.DefaultContention())
	tab := profile.NewTable(inner, profile.DefaultWarmup, profile.DefaultRepeats)
	start := time.Now()
	if _, err := Run(algo, net.G, tab, RunConfig{GPUs: plat.GPUs}); err != nil {
		return SchedulingCost{}, err
	}
	elapsed := time.Since(start)
	st := tab.Stats()
	return SchedulingCost{
		AlgorithmMs: float64(elapsed.Nanoseconds()) / 1e6,
		ProfilingMs: float64(st.SimulatedMs),
		Probes:      st.Probes(),
	}, nil
}

// Fig14 reproduces Fig. 14: the time cost of scheduling optimization
// (profiling + algorithm) for IOS, HIOS-LP and HIOS-MR over input sizes.
func Fig14(b Benchmark, sizes []int) (Figure, error) {
	if sizes == nil {
		sizes = DefaultSizes(b)
	}
	algos := []string{AlgoIOS, AlgoHIOSLP, AlgoHIOSMR}
	fig := Figure{
		ID:     "Fig14-" + string(b),
		Title:  fmt.Sprintf("scheduling optimization cost for %s", b),
		XLabel: "input_size",
		YLabel: "scheduling_cost_ms",
	}
	for _, a := range algos {
		s := Series{Label: a}
		for _, size := range sizes {
			c, err := MeasureSchedulingCost(a, b, size)
			if err != nil {
				return Figure{}, fmt.Errorf("Fig14 %s %s@%d: %w", a, b, size, err)
			}
			s.Points = append(s.Points, Point{X: float64(size), Mean: c.TotalMs()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
