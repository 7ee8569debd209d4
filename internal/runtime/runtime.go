// Package runtime executes a schedule for real: one worker goroutine per
// simulated GPU, concurrent kernel launches inside each stage (the paper's
// CUDA streams), and MPI transfers for every cross-GPU dependency. It is
// the live counterpart of the discrete-event engine in package sim —
// instead of computing when things would happen, it makes them happen,
// with genuine concurrency and genuine (synthetic) floating-point work
// calibrated to each operator's modeled latency.
//
// Because the synthetic kernels are deterministic functions of their
// inputs, every valid schedule of a graph — sequential, IOS, HIOS-LP,
// HIOS-MR — must produce bit-identical outputs; the test suite uses this
// to prove that no scheduler reorders a computation illegally.
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/mpi"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/units"
)

// Options calibrates modeled time to wall-clock effort.
type Options struct {
	// WorkPerMs is the number of synthetic FMA iterations a kernel runs
	// per modeled millisecond of operator latency. Zero selects 50000
	// (a few tens of microseconds of real work per modeled ms).
	WorkPerMs int
	// CommDelay is the wall-clock delay charged per modeled millisecond
	// of transfer time. Zero selects 10µs.
	CommDelay time.Duration
}

func (o *Options) fill() {
	if o.WorkPerMs == 0 {
		o.WorkPerMs = 50000
	}
	if o.CommDelay == 0 {
		o.CommDelay = 10 * time.Microsecond
	}
}

// Validate reports whether the calibration is usable: negative work or
// delay factors are meaningless (zero selects the defaults).
func (o Options) Validate() error {
	if o.WorkPerMs < 0 {
		return fmt.Errorf("runtime: negative WorkPerMs %d", o.WorkPerMs)
	}
	if o.CommDelay < 0 {
		return fmt.Errorf("runtime: negative CommDelay %v", o.CommDelay)
	}
	return nil
}

// StageSpan records one executed stage's wall-clock interval relative to
// the start of the run.
type StageSpan struct {
	GPU        int
	Ops        []graph.OpID
	Start, End time.Duration
}

// Report is the outcome of one execution.
type Report struct {
	// Outputs holds every operator's output tensor.
	Outputs map[graph.OpID][]float32
	// Wall is the end-to-end wall-clock time of the run.
	Wall time.Duration
	// GPUBusy is the cumulative kernel-execution time per simulated GPU.
	GPUBusy []time.Duration
	// Spans is the measured wall-clock timeline of every stage, usable
	// with SimTrace for Gantt/Chrome rendering of the real execution.
	Spans []StageSpan
	// Messages and MovedBytes summarize MPI traffic.
	Messages   int64
	MovedBytes int64
}

// SimTrace converts the measured wall-clock timeline into the simulator's
// trace format (times in milliseconds), so trace.Gantt and
// trace.ChromeTrace can render a real execution exactly like a simulated
// one.
func (r *Report) SimTrace() *sim.Trace {
	tr := &sim.Trace{}
	perGPU := map[int]int{}
	for _, sp := range r.Spans {
		idx := perGPU[sp.GPU]
		perGPU[sp.GPU]++
		rec := sim.StageRecord{
			GPU:    sp.GPU,
			Index:  idx,
			Ops:    sp.Ops,
			Start:  units.Millis(float64(sp.Start.Nanoseconds()) / 1e6),
			Finish: units.Millis(float64(sp.End.Nanoseconds()) / 1e6),
		}
		tr.Stages = append(tr.Stages, rec)
		if rec.Finish > tr.Latency {
			tr.Latency = rec.Finish
		}
	}
	sort.Slice(tr.Stages, func(i, j int) bool {
		if tr.Stages[i].Start != tr.Stages[j].Start {
			return tr.Stages[i].Start < tr.Stages[j].Start
		}
		return tr.Stages[i].GPU < tr.Stages[j].GPU
	})
	return tr
}

// Run executes schedule s of graph g. The schedule must be complete and
// deadlock-free; Run verifies this up front with the analytic evaluator so
// that a bad schedule yields an error instead of hung goroutines.
func Run(g *graph.Graph, m cost.Model, s *sched.Schedule, opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	if _, err := sched.Evaluate(g, m, s); err != nil {
		return nil, fmt.Errorf("runtime: refusing to execute: %w", err)
	}
	n := g.NumOps()

	// The executor is the measurement layer: wall-clock is legal here,
	// and injecting it keeps mpi itself inside the detclock invariant.
	comm, err := mpi.NewComm(len(s.GPUs), mpi.Clock{Now: time.Now, Sleep: time.Sleep})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Outputs: make(map[graph.OpID][]float32, n),
		GPUBusy: make([]time.Duration, len(s.GPUs)),
	}
	var outMu sync.Mutex
	runStart := time.Now()

	errs := make([]error, len(s.GPUs))
	var wg sync.WaitGroup
	for gi := range s.GPUs {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			errs[gi] = runWorker(g, m, s, gi, comm, opt, rep, &outMu, runStart)
		}(gi)
	}
	wg.Wait()
	rep.Wall = time.Since(runStart)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep.Messages, _, rep.MovedBytes = comm.Stats()
	return rep, nil
}

// runWorker drives one simulated GPU through its stage list.
func runWorker(g *graph.Graph, m cost.Model, s *sched.Schedule, gi int, comm *mpi.Comm, opt Options, rep *Report, outMu *sync.Mutex, runStart time.Time) error {
	rank, err := comm.Rank(gi)
	if err != nil {
		return err
	}
	gpuOf := s.Placement(g.NumOps())
	local := make(map[graph.OpID][]float32)
	var busy time.Duration

	for _, stage := range s.GPUs[gi].Stages {
		// Gather inputs for every member. Remote tensors are received
		// once per producer (the paper's engine likewise transfers
		// each tensor to a GPU once, however many consumers it has).
		inputs := make([][][]float32, len(stage.Ops))
		for i, op := range stage.Ops {
			var ins [][]float32
			var perr error
			g.Preds(op, func(u graph.OpID, _ float64) {
				if perr != nil {
					return
				}
				t, ok := local[u]
				if !ok {
					if gpuOf[u] == gi {
						perr = fmt.Errorf("runtime: GPU %d needs local tensor %d before it was produced", gi, u)
						return
					}
					t, perr = rank.Recv(gpuOf[u], int(u))
					if perr != nil {
						return
					}
					local[u] = t
				}
				ins = append(ins, t)
			})
			if perr != nil {
				return perr
			}
			inputs[i] = ins
		}
		// Launch the stage: one goroutine per member, the runtime's
		// CUDA streams.
		outs := make([][]float32, len(stage.Ops))
		kstart := time.Now()
		var sg sync.WaitGroup
		for i, op := range stage.Ops {
			sg.Add(1)
			go func(i int, op graph.OpID) {
				defer sg.Done()
				work := int(g.Op(op).Time * float64(opt.WorkPerMs))
				outs[i] = synth(int64(op), inputs[i], work)
			}(i, op)
		}
		sg.Wait()
		busy += time.Since(kstart)
		outMu.Lock()
		rep.Spans = append(rep.Spans, StageSpan{
			GPU:   gi,
			Ops:   append([]graph.OpID(nil), stage.Ops...),
			Start: kstart.Sub(runStart),
			End:   time.Since(runStart),
		})
		outMu.Unlock()
		// Publish results: locally, to the report, and to remote GPUs.
		for i, op := range stage.Ops {
			local[op] = outs[i]
			outMu.Lock()
			rep.Outputs[op] = outs[i]
			outMu.Unlock()
			for _, dst := range sendTargets(g, gpuOf, op) {
				// Charge the modeled transfer time. CommTime needs a
				// consumer; all consumers of one edge see the same
				// producer tensor, so take any consumer on dst.
				// Wall-clock calibration boundary: modeled ms ×
				// (wall time per modeled ms) leaves the unit system.
				delay := time.Duration(float64(maxCommTo(g, m, gpuOf, op, dst)) * float64(opt.CommDelay))
				if err := rank.Send(dst, int(op), outs[i], delay); err != nil {
					return err
				}
			}
		}
	}
	rep.GPUBusy[gi] = busy
	return nil
}

// sendTargets returns the distinct remote GPUs consuming op's output.
func sendTargets(g *graph.Graph, gpuOf []int, op graph.OpID) []int {
	var out []int
	g.Succs(op, func(v graph.OpID, _ float64) {
		gv := gpuOf[v]
		if gv == gpuOf[op] {
			return
		}
		for _, d := range out {
			if d == gv {
				return
			}
		}
		out = append(out, gv)
	})
	return out
}

// maxCommTo returns the modeled transfer time of op's tensor to the
// given GPU: the maximum over consuming edges (they share one physical
// transfer).
func maxCommTo(g *graph.Graph, m cost.Model, gpuOf []int, op graph.OpID, dst int) units.Millis {
	best := units.Millis(0)
	g.Succs(op, func(v graph.OpID, _ float64) {
		if gpuOf[v] != dst {
			return
		}
		if c := cost.CommBetween(m, op, v, gpuOf[op], dst); c > best {
			best = c
		}
	})
	return best
}

// Reference executes the graph sequentially in topological order with the
// same synthetic kernels and returns every operator's output: the ground
// truth any schedule's execution must reproduce exactly.
func Reference(g *graph.Graph, opt Options) map[graph.OpID][]float32 {
	opt.fill()
	order, err := g.TopoOrder()
	if err != nil {
		panic("runtime: Reference on cyclic graph: " + err.Error())
	}
	out := make(map[graph.OpID][]float32, len(order))
	for _, op := range order {
		var ins [][]float32
		g.Preds(op, func(u graph.OpID, _ float64) {
			ins = append(ins, out[u])
		})
		work := int(g.Op(op).Time * float64(opt.WorkPerMs))
		out[op] = synth(int64(op), ins, work)
	}
	return out
}
