// Package hios is the public API of the HIOS reproduction: a hierarchical
// inter-operator scheduler that minimizes the inference latency of
// DAG-structured deep-learning models across multiple GPUs, after
//
//	Kundu & Shu, "HIOS: Hierarchical Inter-Operator Scheduler for
//	Real-Time Inference of DAG-Structured Deep Learning Models on
//	Multiple GPUs", IEEE CLUSTER 2023.
//
// The workflow is: obtain a computation graph (a built-in CNN benchmark, a
// random model, or one you construct op by op), pick a cost model, run a
// scheduling algorithm, then evaluate, simulate, execute or export the
// resulting schedule.
//
//	net := hios.InceptionV3(hios.DualA40(), 299)
//	m := hios.DefaultCostModel(net.G)
//	res, err := hios.Optimize(net.G, m, hios.HIOSLP, hios.Options{GPUs: 2})
//
// Everything below delegates to the focused packages under internal/; the
// exported aliases let applications hold and inspect the underlying values
// without importing internal paths.
package hios

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
	"github.com/shus-lab/hios/internal/experiments"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/memory"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/pipeline"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/runtime"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/refine"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/trace"
	"github.com/shus-lab/hios/internal/units"
)

// Typed physical quantities of the cost core (see internal/units and
// DESIGN.md "Units and dimensional safety"): distinct defined types over
// float64, so mixing milliseconds with seconds or bytes with FLOPs is a
// compile error. They format and marshal exactly like float64.
type (
	// Millis is a duration in milliseconds, the native unit of every
	// latency and cost-model value in the API.
	Millis = units.Millis
	// Seconds is a duration in seconds (roofline intermediate).
	Seconds = units.Seconds
	// Bytes is a data size in bytes.
	Bytes = units.Bytes
	// FLOPs is an amount of floating-point work.
	FLOPs = units.FLOPs
	// BytesPerSec is a data rate (memory or link bandwidth).
	BytesPerSec = units.BytesPerSec
	// FLOPsPerSec is a compute throughput.
	FLOPsPerSec = units.FLOPsPerSec
)

// Core graph and schedule types.
type (
	// Graph is a weighted DAG of operators: the computation graph of a
	// DL model (§III-A of the paper).
	Graph = graph.Graph
	// Op is one operator (vertex) with its solo execution time and GPU
	// utilization.
	Op = graph.Op
	// OpID identifies an operator within a Graph.
	OpID = graph.OpID
	// Edge is a data dependency with its inter-GPU transfer time.
	Edge = graph.Edge
	// Schedule maps operators onto GPUs and partitions each GPU's work
	// into stages of concurrently executing operators.
	Schedule = sched.Schedule
	// Stage is one set of operators launched together on one GPU.
	Stage = sched.Stage
	// GPUSchedule is one device's ordered stage list.
	GPUSchedule = sched.GPUSchedule
	// Timing is an evaluated schedule: per-stage and per-operator start
	// and finish times plus the end-to-end latency.
	Timing = sched.Timing
	// Result pairs a schedule with its latency.
	Result = sched.Result
	// CostModel supplies t(v), t(u,v) and t(S) (§III-A).
	CostModel = cost.Model
	// Net is a built neural network: graph plus tensor shapes.
	Net = model.Net
	// Platform is a GPU device + interconnect + device count.
	Platform = gpu.Platform
	// RandomModelConfig parameterizes random layered DL models
	// (the paper's §V-A simulation workload).
	RandomModelConfig = randdag.Config
	// ExecReport is the outcome of a live multi-worker execution.
	ExecReport = runtime.Report
	// ExecOptions calibrates the live executor.
	ExecOptions = runtime.Options
	// SimTrace is a discrete-event execution timeline.
	SimTrace = sim.Trace
	// ProfiledModel is a memoizing cost model that counts distinct
	// probes and accounts the simulated wall time a real profiler
	// would spend measuring them (the paper's Fig. 14 methodology).
	ProfiledModel = profile.CostTable
	// ProfileStats summarizes a ProfiledModel's measurements.
	ProfileStats = profile.Stats
	// FrozenCostModel is a cost model replayed from a saved profile
	// snapshot; it never re-measures.
	FrozenCostModel = profile.FrozenModel
	// MemoryReport is the per-GPU peak-memory analysis of a schedule.
	MemoryReport = memory.Report
	// PipelineReport summarizes a schedule's sustained throughput over
	// back-to-back inference requests.
	PipelineReport = pipeline.Report
	// RandWireConfig parameterizes randomly wired networks.
	RandWireConfig = model.RandWireConfig
	// Topology describes non-uniform inter-GPU links (multi-node
	// clusters with fast intra-node and slow inter-node transfers).
	Topology = gpu.Topology
	// TopologyCostModel is a cost model with placement-dependent
	// communication.
	TopologyCostModel = cost.TopologyModel
)

// Algorithm selects a scheduling algorithm.
type Algorithm string

// The implemented schedulers (§V-B).
const (
	// Sequential executes operators one by one on a single GPU.
	Sequential Algorithm = experiments.AlgoSequential
	// IOS is the single-GPU inter-operator scheduler of Ding et al.
	// (MLSys 2021): exact stage partitioning by dynamic programming.
	IOS Algorithm = experiments.AlgoIOS
	// HIOSLP is the paper's contribution: iterative longest-path
	// mapping across GPUs plus sliding-window intra-GPU
	// parallelization.
	HIOSLP Algorithm = experiments.AlgoHIOSLP
	// HIOSMR is the paper's alternative multi-GPU scheduler based on
	// mapping recording (Algorithm 3).
	HIOSMR Algorithm = experiments.AlgoHIOSMR
	// InterLP is HIOS-LP without the intra-GPU pass.
	InterLP Algorithm = experiments.AlgoInterLP
	// InterMR is HIOS-MR without the intra-GPU pass.
	InterMR Algorithm = experiments.AlgoInterMR
)

// Algorithms lists every implemented scheduler.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(experiments.AllAlgorithms))
	for i, a := range experiments.AllAlgorithms {
		out[i] = Algorithm(a)
	}
	return out
}

// AlgorithmUsage renders Algorithms() as a one-line flag usage string:
// "sequential, ios, hios-lp, ...".
func AlgorithmUsage() string {
	return strings.Join(experiments.AllAlgorithms, ", ")
}

// Options configures scheduling. Every zero value selects a documented
// default, so Options{} is valid for the single-GPU algorithms and
// Options{GPUs: m} for the multi-GPU ones; Validate is the single place
// those rules live.
type Options struct {
	// GPUs is the number of homogeneous devices (M). Multi-GPU
	// algorithms require at least 1; single-GPU algorithms ignore it.
	GPUs int
	// Window is the maximum sliding-window size w of the intra-GPU
	// pass; zero selects the default (4).
	Window int
}

// Sentinel errors of Options.Validate. Match with errors.Is; the
// returned errors wrap these with the offending values.
var (
	// ErrUnknownAlgorithm reports an Algorithm value outside
	// Algorithms().
	ErrUnknownAlgorithm = errors.New("hios: unknown algorithm")
	// ErrNoGPUs reports a multi-GPU algorithm invoked with GPUs < 1.
	ErrNoGPUs = errors.New("hios: multi-GPU algorithm needs GPUs >= 1")
	// ErrBadWindow reports a negative sliding-window size.
	ErrBadWindow = errors.New("hios: negative window size")
)

// Validate checks the options against the selected algorithm and
// returns the first violation wrapped around one of the sentinel errors
// above (nil when the configuration is valid). Zero values with
// documented defaults — Window, and GPUs for single-GPU algorithms — are
// always valid. Optimize and every cmd/ driver route their checking
// through here, so the rules live in one place and callers can
// errors.Is-match the failure.
func (o Options) Validate(algo Algorithm) error {
	if !slices.Contains(experiments.AllAlgorithms, string(algo)) {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownAlgorithm, string(algo), Algorithms())
	}
	if experiments.MultiGPU(string(algo)) && o.GPUs < 1 {
		return fmt.Errorf("%w: %s got GPUs=%d", ErrNoGPUs, algo, o.GPUs)
	}
	if o.Window < 0 {
		return fmt.Errorf("%w: %d", ErrBadWindow, o.Window)
	}
	return nil
}

// Optimize runs the selected scheduling algorithm on g under cost model
// m and returns the optimized schedule with its predicted latency. The
// options are checked with opt.Validate(algo) first.
func Optimize(g *Graph, m CostModel, algo Algorithm, opt Options) (Result, error) {
	if err := opt.Validate(algo); err != nil {
		return Result{}, err
	}
	return experiments.Run(string(algo), g, m, experiments.RunConfig{
		GPUs:   opt.GPUs,
		Window: opt.Window,
	})
}

// Parallelize applies the intra-GPU sliding-window pass (Algorithm 2) to
// an existing schedule, never increasing its latency.
func Parallelize(g *Graph, m CostModel, s *Schedule, windowSize int) (Result, error) {
	return window.Parallelize(g, m, s, windowSize)
}

// Refine runs the local-search post-pass (an extension beyond the paper):
// single-operator relocations between GPUs committed while latency
// improves, followed by the sliding-window pass with the given width
// (values below 2 skip it). Never returns a schedule worse than the
// input. maxMoves <= 0 selects the default budget.
func Refine(g *Graph, m CostModel, s *Schedule, maxMoves, windowSize int) (Result, error) {
	res, err := refine.Improve(g, m, s, refine.Options{MaxMoves: maxMoves, Window: windowSize})
	if err != nil {
		return Result{}, err
	}
	return res.Result, nil
}

// NewGraph returns an empty computation graph with capacity hints.
func NewGraph(ops, edges int) *Graph { return graph.New(ops, edges) }

// NewSchedule returns an empty schedule over m GPUs, to be filled with
// Append / AppendStage — for hand-crafted or externally computed
// schedules.
func NewSchedule(m int) *Schedule { return sched.New(m) }

// DefaultCostModel prices g by its own vertex/edge weights with the
// calibrated concurrent-execution contention model.
func DefaultCostModel(g *Graph) CostModel {
	return cost.FromGraph(g, cost.DefaultContention())
}

// WithTopology overlays a hierarchical interconnect onto a cost model:
// every cross-GPU transfer is scaled by the pair's topology factor. The
// evaluator, simulator and placement-aware schedulers automatically use
// the pair-dependent costs.
func WithTopology(m CostModel, topo Topology) TopologyCostModel {
	return cost.WithTopology(m, topo)
}

// UniformTopology returns the paper's flat SMP interconnect.
func UniformTopology(gpus int) Topology { return gpu.Uniform(gpus) }

// TwoLevelTopology returns a cluster of nodes x gpusPerNode devices with
// inter-node transfers costing interFactor times the intra-node baseline.
func TwoLevelTopology(nodes, gpusPerNode int, interFactor float64) Topology {
	return gpu.TwoLevel(nodes, gpusPerNode, interFactor)
}

// Profiled wraps a cost model with measurement accounting: every distinct
// operator, operator group and transfer probed by a scheduler is counted
// once and charged (warmup + repeats) simulated executions, reproducing
// the profiling component of the paper's scheduling-optimization cost.
// Zero warmup/repeats select the paper's defaults (2 and 36).
func Profiled(m CostModel, warmup, repeats int) *ProfiledModel {
	return profile.NewTable(m, warmup, repeats)
}

// ImportProfile loads a saved profile snapshot (ProfiledModel.Export) as
// a frozen cost model: scheduling against it replays the recorded
// measurements exactly and counts any probe the profile is missing.
func ImportProfile(data []byte) (*FrozenCostModel, error) {
	return profile.Import(data)
}

// KernelCacheStats has the fields of the shape cache the process once
// kept in front of the device, link and contention models. That cache
// cost more per probe than the roofline it memoized and is gone; the
// models are priced directly, so every count reads zero.
//
// Deprecated: nothing is cached by shape. The benchmark harness is the
// last caller; BlockCacheStats reports the one shared cache.
type KernelCacheStats struct {
	Kernels, Transfers, Stages                int
	KernelHits, TransferHits, StageHits       int64
	KernelMisses, TransferMisses, StageMisses int64
}

// Probes returns the sum of the hit and miss counts.
func (s KernelCacheStats) Probes() int64 {
	return s.KernelHits + s.KernelMisses +
		s.TransferHits + s.TransferMisses +
		s.StageHits + s.StageMisses
}

// SharedKernelCacheStats returns a zero KernelCacheStats.
//
// Deprecated: nothing is cached by shape; use SharedBlockCacheStats.
func SharedKernelCacheStats() KernelCacheStats { return KernelCacheStats{} }

// ResetSharedKernelCache does nothing.
//
// Deprecated: nothing is cached by shape; use ResetSharedBlockCache.
func ResetSharedKernelCache() {}

// BlockCacheStats snapshots the process-wide IOS block-solve cache: how
// many distinct block signatures have been solved and how often a solve
// was answered from memory. The cache memoizes whole dynamic-program
// solves by a canonical block signature (stage items, intra-block edges,
// contention calibration and pruning options — never operator IDs), so a
// structurally identical block costs one map lookup after its first
// solve; see DESIGN.md "DP state storage and memoized block solves".
type BlockCacheStats = dpcache.Stats

// SharedBlockCacheStats reports the shared block cache's snapshot.
func SharedBlockCacheStats() BlockCacheStats { return dpcache.Shared().Stats() }

// ResetSharedBlockCache drops every memoized block solve. Cached solves
// are bit-identical replays of the dynamic program, so results never
// depend on the cache's state — only cold-path timings do.
func ResetSharedBlockCache() { dpcache.Shared().Reset() }

// CachedCostModel prices a built net. The builder priced every operator
// and transfer into the net's graph weights, so this is DefaultCostModel
// on the net's graph; the error is always nil.
//
// Deprecated: use DefaultCostModel(n.G). The benchmark harness is the
// last caller.
func CachedCostModel(n *Net) (CostModel, error) {
	return DefaultCostModel(n.G), nil
}

// Evaluate computes the timing of a complete schedule under the paper's
// precedence constraints.
func Evaluate(g *Graph, m CostModel, s *Schedule) (*Timing, error) {
	return sched.Evaluate(g, m, s)
}

// Latency returns just the evaluated makespan of a schedule.
func Latency(g *Graph, m CostModel, s *Schedule) (Millis, error) {
	return sched.Latency(g, m, s)
}

// Simulate executes the schedule on the discrete-event engine.
// serializedLinks additionally models each directed GPU pair's
// interconnect as a single shared resource, as a physical NVLink bridge
// behaves.
func Simulate(g *Graph, m CostModel, s *Schedule, serializedLinks bool) (*SimTrace, error) {
	return sim.RunOpts(g, m, s, sim.Options{SerializeLinks: serializedLinks})
}

// Execute runs the schedule for real: one worker goroutine per simulated
// GPU, concurrent kernels within stages, MPI transfers across GPUs. The
// zero ExecOptions selects sensible calibration.
func Execute(g *Graph, m CostModel, s *Schedule, opt ExecOptions) (*ExecReport, error) {
	return runtime.Run(g, m, s, opt)
}

// ExportJSON renders a schedule in the JSON interchange format the
// paper's engine consumes.
func ExportJSON(g *Graph, s *Schedule, modelName string, algo Algorithm, latency Millis) ([]byte, error) {
	return trace.MarshalSchedule(g, s, modelName, string(algo), latency)
}

// ImportJSON parses a schedule from the JSON interchange format.
func ImportJSON(data []byte) (*Schedule, error) {
	s, _, err := trace.UnmarshalSchedule(data)
	return s, err
}

// ChromeTrace renders a simulated execution for chrome://tracing.
func ChromeTrace(g *Graph, tr *SimTrace) ([]byte, error) {
	return trace.ChromeTrace(g, tr)
}

// Gantt renders a simulated execution as a fixed-width text Gantt chart
// (one row per GPU) with a stage legend.
func Gantt(g *Graph, tr *SimTrace, width int) string {
	return trace.Gantt(g, tr, width)
}

// WriteGantt streams the Gantt chart to w without building the
// intermediate string; Gantt delegates to it.
func WriteGantt(w io.Writer, g *Graph, tr *SimTrace, width int) error {
	return trace.WriteGantt(w, g, tr, width)
}

// DOT renders the computation graph in Graphviz format; when s is
// non-nil, operators are clustered by GPU and colored by stage.
func DOT(g *Graph, s *Schedule) string {
	return trace.DOT(g, s)
}

// WriteDOT streams the Graphviz rendering to w without building the
// intermediate string; DOT delegates to it.
func WriteDOT(w io.Writer, g *Graph, s *Schedule) error {
	return trace.WriteDOT(w, g, s)
}

// InceptionV3 builds the Inception-v3 benchmark at a square input size on
// the platform's device and interconnect.
func InceptionV3(p Platform, inputSize int) *Net {
	return model.InceptionV3(p.Dev, p.Link, inputSize)
}

// NASNetA builds the NASNet-A benchmark at a square input size.
func NASNetA(p Platform, inputSize int) *Net {
	return model.NASNet(p.Dev, p.Link, inputSize)
}

// SqueezeNet builds SqueezeNet v1.1 at a square input size (canonical
// 224): the shallow, fire-module benchmark of the IOS paper's suite.
func SqueezeNet(p Platform, inputSize int) *Net {
	return model.SqueezeNet(p.Dev, p.Link, inputSize)
}

// ResNet50 builds ResNet-50 at a square input size (canonical 224): the
// near-chain control case where inter-operator parallelism has little to
// exploit.
func ResNet50(p Platform, inputSize int) *Net {
	return model.ResNet50(p.Dev, p.Link, inputSize)
}

// BuildNet builds a CNN benchmark by name — inception, nasnet,
// squeezenet or resnet50 — on the platform. Size 0 selects the model's
// default input size: 299 for Inception-v3, 331 for NASNet-A and 224
// otherwise.
func BuildNet(name string, p Platform, size int) (*Net, error) {
	var build func(Platform, int) *Net
	def := 224
	switch name {
	case "inception":
		build, def = InceptionV3, 299
	case "nasnet":
		build, def = NASNetA, 331
	case "squeezenet":
		build = SqueezeNet
	case "resnet50":
		build = ResNet50
	default:
		return nil, fmt.Errorf("unknown model %q (want inception, nasnet, squeezenet or resnet50)", name)
	}
	if size == 0 {
		size = def
	}
	return build(p, size), nil
}

// RandWireNet builds a randomly wired CNN (Xie et al., ICCV 2019), the
// most irregular benchmark of the IOS suite.
func RandWireNet(p Platform, cfg RandWireConfig) (*Net, error) {
	return model.RandWire(p.Dev, p.Link, cfg)
}

// DefaultRandWire returns a small randomly-wired configuration.
func DefaultRandWire() RandWireConfig { return model.DefaultRandWire() }

// AnalyzeMemory computes the per-GPU peak device-memory footprint of a
// schedule (buffer lifetimes from producer start to last consumer finish,
// cross-GPU copies included).
func AnalyzeMemory(g *Graph, m CostModel, s *Schedule) (*MemoryReport, error) {
	return memory.Analyze(g, m, s)
}

// AnalyzePipeline unrolls the schedule over k back-to-back inference
// requests and reports single-request latency, steady-state period and
// sustained throughput — the serving-rate extension of the paper's
// single-inference objective.
func AnalyzePipeline(g *Graph, m CostModel, s *Schedule, k int) (*PipelineReport, error) {
	return pipeline.Analyze(g, m, s, k)
}

// RandomModel generates a random layered DL-model structure (§V-A).
func RandomModel(cfg RandomModelConfig) (*Graph, error) { return randdag.Generate(cfg) }

// RandomModelDefaults returns the paper's simulation defaults: 200
// operators, 14 layers, 400 dependencies, p = 0.8.
func RandomModelDefaults() RandomModelConfig { return randdag.Paper() }

// Platforms of the paper's experiments.
var (
	// DualA40 is the main testbed: two A40s with an NVLink bridge.
	DualA40 = gpu.DualA40
	// DualA5500 is the second NVLink platform.
	DualA5500 = gpu.DualA5500
	// DualV100S is the PCIe platform.
	DualV100S = gpu.DualV100S
	// Cluster is an M-GPU NVSwitch node for scaling studies.
	Cluster = gpu.Cluster
)
