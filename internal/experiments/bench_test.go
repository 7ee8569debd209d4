package experiments

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/units"
)

// Scheduler micro-benchmarks on the paper's default random model (200
// operators, 14 layers, 400 dependencies) — the per-algorithm cost side
// of the Fig. 14 story, without profiling.

func benchGraphAndModel() (cfg randdag.Config) {
	cfg = randdag.Paper()
	cfg.Seed = 7
	return cfg
}

func benchAlgo(b *testing.B, algo string, gpus int) {
	g := randdag.MustGenerate(benchGraphAndModel())
	m := cost.FromGraph(g, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(algo, g, m, RunConfig{GPUs: gpus})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Latency), "latency-ms")
		}
	}
}

func BenchmarkSchedulerSequential(b *testing.B) { benchAlgo(b, AlgoSequential, 1) }
func BenchmarkSchedulerIOS(b *testing.B)        { benchAlgo(b, AlgoIOS, 1) }

// BenchmarkSchedulerIOSCold disables the shared block cache, so every
// iteration pays the full DP search: the cold-solve cost the warm
// BenchmarkSchedulerIOS amortizes away after its first iteration.
func BenchmarkSchedulerIOSCold(b *testing.B) {
	g := randdag.MustGenerate(benchGraphAndModel())
	m := cost.FromGraph(g, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(AlgoIOS, g, m, RunConfig{IOS: ios.Options{NoCache: true}}); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkSchedulerHIOSLP4GPUs(b *testing.B) {
	benchAlgo(b, AlgoHIOSLP, 4)
}
func BenchmarkSchedulerHIOSMR4GPUs(b *testing.B) {
	benchAlgo(b, AlgoHIOSMR, 4)
}
func BenchmarkSchedulerInterLP4GPUs(b *testing.B) {
	benchAlgo(b, AlgoInterLP, 4)
}
func BenchmarkSchedulerHIOSLP12GPUs(b *testing.B) {
	benchAlgo(b, AlgoHIOSLP, 12)
}

// The LP / MR / window trio isolates the three burn-down targets of the
// hot-path allocation discipline (hotalloc): the LP longest-path mapping
// loop, the MR table fill, and the sliding-window refiner, each without
// the other passes, so BENCH_ledger.json holds their allocs/op individually.

func BenchmarkSchedulerLP(b *testing.B) {
	g := randdag.MustGenerate(benchGraphAndModel())
	m := cost.FromGraph(g, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Schedule(g, m, lp.Options{GPUs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerMR(b *testing.B) {
	g := randdag.MustGenerate(benchGraphAndModel())
	m := cost.FromGraph(g, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Schedule(g, m, mr.Options{GPUs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowRefine(b *testing.B) {
	g := randdag.MustGenerate(benchGraphAndModel())
	m := cost.FromGraph(g, cost.DefaultContention())
	base, err := lp.Schedule(g, m, lp.Options{GPUs: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := window.Parallelize(g, m, base.Schedule, window.DefaultSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerHIOSLPInception runs HIOS-LP on the real Inception-v3
// graph: the scheduling-cost half of Fig. 14 at the default input.
func BenchmarkSchedulerHIOSLPInception(b *testing.B) {
	plat := benchPlatform()
	net, err := BuildBenchmark(Inception, plat, 299)
	if err != nil {
		b.Fatal(err)
	}
	m := cost.FromGraph(net.G, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(AlgoHIOSLP, net.G, m, RunConfig{GPUs: plat.GPUs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerIOSNASNet runs IOS on NASNet-A: the paper's heaviest
// scheduling workload (374 operators).
func BenchmarkSchedulerIOSNASNet(b *testing.B) {
	plat := benchPlatform()
	net, err := BuildBenchmark(NASNet, plat, 331)
	if err != nil {
		b.Fatal(err)
	}
	m := cost.FromGraph(net.G, cost.DefaultContention())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(AlgoIOS, net.G, m, RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlatform() gpu.Platform { return gpu.DualA40() }

// Sweep benchmarks: the end-to-end statistical drivers the parallel pool
// accelerates. The Width1 variant pins the serial reference path — it must
// not regress against the pre-pool serial loop — and FullWidth runs the
// identical sweep on a GOMAXPROCS-wide pool, which on a multi-core runner
// should scale toward the core count while producing byte-identical
// figures (TestSweepParallelMatchesSerial). Comparing the two on one
// machine gives the sweep engine's parallel efficiency.

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	opt := SimOptions{Seeds: 2, GPUs: 4, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig10(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepFig10Width1(b *testing.B)    { benchSweep(b, 1) }
func BenchmarkSweepFig10FullWidth(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepFig7Cold is the sweep workload from cold caches: Fig. 7
// at one seed on a GOMAXPROCS-wide pool, with the shared block cache
// reset outside the timer before every iteration, so each
// pays the one cold IOS solve per distinct graph. It reports the cost
// per (x, seed) cell.
func BenchmarkSweepFig7Cold(b *testing.B) {
	opt := SimOptions{Seeds: 1, GPUs: 4}
	cells := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dpcache.Shared().Reset()
		b.StartTimer()
		fig, err := Fig7(opt)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(fig.Series[0].Points) * opt.Seeds
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}

// opaqueModel hides a cost model's concrete type, so the IOS DP takes its
// generic path and prices every candidate stage with StageTime.
type opaqueModel struct{ inner cost.Model }

func (m opaqueModel) OpTime(v graph.OpID) units.Millis      { return m.inner.OpTime(v) }
func (m opaqueModel) CommTime(u, v graph.OpID) units.Millis { return m.inner.CommTime(u, v) }
func (m opaqueModel) StageTime(ops []graph.OpID) units.Millis {
	return m.inner.StageTime(ops)
}

// callCounter counts the stage pricing calls that reach a profiling
// table: StageTime, and PriceStage, the entry point of the DP's stage
// memo. Embedding the table keeps it a cost.MemoModel, so the memo stays
// on and only the calls it lets through are counted.
type callCounter struct {
	*profile.CostTable
	calls int
}

func (m *callCounter) StageTime(ops []graph.OpID) units.Millis {
	m.calls++
	return m.CostTable.StageTime(ops)
}

func (m *callCounter) PriceStage(ops []graph.OpID) units.Millis {
	m.calls++
	return m.CostTable.PriceStage(ops)
}

// nasnetProfiled builds the Fig. 14 IOS workload at its heaviest single
// block: NASNet-A@1024 on the dual-A40 platform.
func nasnetProfiled(b *testing.B) (*graph.Graph, cost.Model) {
	b.Helper()
	net, err := BuildBenchmark(NASNet, benchPlatform(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	return net.G, cost.FromGraph(net.G, cost.DefaultContention())
}

// BenchmarkSchedulerIOSNASNetProfiled is one IOS solve of NASNet-A@1024
// behind a fresh profiling table per iteration, as MeasureSchedulingCost
// runs it. It reports the cost per distinct probe (ns/probe) and, from one
// untimed solve, how many StageTime or PriceStage calls reach the table
// per distinct probe (calls/probe).
func BenchmarkSchedulerIOSNASNetProfiled(b *testing.B) {
	g, m := nasnetProfiled(b)
	cc := &callCounter{CostTable: profile.NewTable(m, 0, 0)}
	if _, err := Run(AlgoIOS, g, cc, RunConfig{}); err != nil {
		b.Fatal(err)
	}
	probes := cc.Stats().Probes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(AlgoIOS, g, profile.NewTable(m, 0, 0), RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
	b.ReportMetric(float64(cc.calls)/float64(probes), "calls/probe")
}

// BenchmarkSchedulerIOSNASNetOpaque is the same solve on the unprofiled
// model behind an opaque wrapper: the generic DP path with no table, the
// reference the profiled solve is compared with.
func BenchmarkSchedulerIOSNASNetOpaque(b *testing.B) {
	g, m := nasnetProfiled(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(AlgoIOS, g, opaqueModel{m}, RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
