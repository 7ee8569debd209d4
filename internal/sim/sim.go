// Package sim is a deterministic discrete-event simulator that executes a
// schedule against a cost model, device by device, event by event. It is
// the substitute for the paper's physical dual-A40 testbed: stages run
// sequentially on their GPU, the operators of a stage launch together and
// occupy the device for the cost model's t(S), and a tensor crossing GPUs
// arrives t(u, v) after its producer stage finishes.
//
// The engine is redundant with the analytic evaluator in package sched by
// design — the two compute the same makespan through entirely different
// mechanisms, which the test suite exploits as a cross-check — and it
// additionally produces a full per-stage timeline for trace export.
//
// Events pop from an eventq.Queue, the (time, sequence) queue the serving
// engine also runs on, so simultaneous events execute in push order.
package sim

import (
	"fmt"
	"sort"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/eventq"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// StageRecord is one executed stage in the timeline.
type StageRecord struct {
	GPU    int
	Index  int
	Ops    []graph.OpID
	Start  units.Millis
	Finish units.Millis
}

// TransferRecord is one inter-GPU tensor transfer in the timeline.
type TransferRecord struct {
	From, To       graph.OpID
	FromGPU, ToGPU int
	Depart, Arrive units.Millis
}

// Trace is the full simulated execution.
type Trace struct {
	Latency   units.Millis
	Stages    []StageRecord
	Transfers []TransferRecord
}

// event is a pending simulator event; its (time, sequence) key lives in
// the eventq.Queue.
type event struct {
	kind int // 0: stage finish, 1: transfer arrival
	gpu  int // stage finish: which GPU
	xfer int // transfer arrival: index into pending transfers
}

// Options controls simulation fidelity.
type Options struct {
	// SerializeLinks models each directed GPU pair's interconnect as a
	// single shared resource: concurrent transfers between the same
	// pair of devices queue FIFO instead of overlapping. The analytic
	// cost model (paper §III-A) — and therefore every scheduler —
	// assumes contention-free links; real platforms with one NVLink
	// bridge do not behave that way, which is one reason measured
	// latencies diverge from scheduler estimates. Off by default so
	// that Run agrees exactly with sched.Evaluate.
	SerializeLinks bool
}

// Validate reports whether the options are usable. Every Options value
// is currently valid — the method exists so the simulator follows the
// repository's validated-options pattern (pubapi lint) and gains checks
// compatibly if fields grow.
func (o Options) Validate() error { return nil }

// Run simulates schedule s for graph g under cost model m with default
// options: contention-free links, matching the analytic evaluator.
func Run(g *graph.Graph, m cost.Model, s *sched.Schedule) (*Trace, error) {
	return RunOpts(g, m, s, Options{})
}

// RunOpts simulates schedule s for graph g under cost model m. The
// schedule must be complete and valid; a deadlocked schedule (cyclic stage
// dependencies) is reported as an error, mirroring the evaluator.
//
//lint:hotpath
func RunOpts(g *graph.Graph, m cost.Model, s *sched.Schedule, opt Options) (*Trace, error) {
	if err := sched.Validate(g, s); err != nil {
		return nil, err
	}
	n := g.NumOps()
	gpuOf, stageOf := s.StageOf(n)

	// For each stage, how many cross-GPU tensor arrivals it awaits, and
	// per-GPU sequential positions.
	type stageKey struct{ gpu, idx int }
	waiting := make(map[stageKey]int)
	// Dedupe transfers by (producer op, destination GPU): the runtime
	// sends each tensor to each remote GPU once, however many consumers
	// live there.
	type xferKey struct {
		op     graph.OpID
		dstGPU int
	}
	consumers := make(map[xferKey][]graph.OpID)
	for _, e := range g.Edges() {
		gu, gv := gpuOf[e.From], gpuOf[e.To]
		if gu == gv {
			continue
		}
		k := xferKey{op: e.From, dstGPU: gv}
		consumers[k] = append(consumers[k], e.To)
	}
	// Each distinct transfer blocks every consumer stage on the
	// destination GPU.
	type pendingXfer struct {
		from       graph.OpID
		fromGPU    int
		toGPU      int
		comm       units.Millis
		dstStages  []stageKey
		consumerOp graph.OpID // representative consumer, for the record
	}
	xfersByProducer := make(map[graph.OpID][]int)
	xfers := make([]pendingXfer, 0, len(consumers))
	// Deterministic iteration order over the consumers map.
	xkeys := make([]xferKey, 0, len(consumers))
	for k := range consumers {
		xkeys = append(xkeys, k)
	}
	sort.Slice(xkeys, func(i, j int) bool {
		if xkeys[i].op != xkeys[j].op {
			return xkeys[i].op < xkeys[j].op
		}
		return xkeys[i].dstGPU < xkeys[j].dstGPU
	})
	// One dedupe map serves every transfer; cleared between keys.
	seen := make(map[stageKey]bool)
	for _, k := range xkeys {
		cs := consumers[k]
		// Insertion sort: cs is tiny (consumers of one tensor on one GPU)
		// and a sort.Slice closure here would allocate per transfer.
		for a := 1; a < len(cs); a++ {
			for b := a; b > 0 && cs[b] < cs[b-1]; b-- {
				cs[b], cs[b-1] = cs[b-1], cs[b]
			}
		}
		clear(seen)
		px := pendingXfer{
			from:       k.op,
			fromGPU:    gpuOf[k.op],
			toGPU:      k.dstGPU,
			comm:       cost.CommBetween(m, k.op, cs[0], gpuOf[k.op], k.dstGPU),
			consumerOp: cs[0],
		}
		for _, c := range cs {
			sk := stageKey{gpu: gpuOf[c], idx: stageOf[c]}
			if !seen[sk] {
				seen[sk] = true
				px.dstStages = append(px.dstStages, sk)
				waiting[sk]++
			}
		}
		xfersByProducer[k.op] = append(xfersByProducer[k.op], len(xfers))
		xfers = append(xfers, px)
	}

	tr := &Trace{}
	next := make([]int, len(s.GPUs)) // next stage index per GPU
	busyUntil := make([]units.Millis, len(s.GPUs))
	started := make([]bool, len(s.GPUs)) // whether next[gpu] is running
	// linkFree[src*nG+dst] is when the directed link src->dst next becomes
	// idle, used only under SerializeLinks. Row-major flat array.
	nG := len(s.GPUs)
	linkFree := make([]units.Millis, nG*nG)
	now := units.Millis(0)
	var h eventq.Queue[event]

	startReady := func(gpu int) {
		if started[gpu] || next[gpu] >= len(s.GPUs[gpu].Stages) {
			return
		}
		sk := stageKey{gpu: gpu, idx: next[gpu]}
		if waiting[sk] > 0 {
			return
		}
		ops := s.GPUs[gpu].Stages[next[gpu]].Ops
		start := now
		if busyUntil[gpu] > start {
			start = busyUntil[gpu]
		}
		dur := m.StageTime(ops)
		finish := start + dur
		busyUntil[gpu] = finish
		started[gpu] = true
		tr.Stages = append(tr.Stages, StageRecord{
			GPU: gpu, Index: next[gpu], Ops: ops, Start: start, Finish: finish,
		})
		h.Push(finish, event{kind: 0, gpu: gpu})
	}

	for gpu := range s.GPUs {
		startReady(gpu)
	}

	done := 0
	total := s.NumStages()
	for h.Len() > 0 {
		var ev event
		now, ev = h.Pop()
		switch ev.kind {
		case 0: // stage finished on ev.gpu
			stage := s.GPUs[ev.gpu].Stages[next[ev.gpu]]
			done++
			// Launch outbound transfers for every member's tensors.
			for _, op := range stage.Ops {
				for _, xi := range xfersByProducer[op] {
					x := xfers[xi]
					depart := now
					if opt.SerializeLinks {
						if f := linkFree[x.fromGPU*nG+x.toGPU]; f > depart {
							depart = f
						}
						linkFree[x.fromGPU*nG+x.toGPU] = depart + x.comm
					}
					arrive := depart + x.comm
					tr.Transfers = append(tr.Transfers, TransferRecord{
						From: x.from, To: x.consumerOp,
						FromGPU: x.fromGPU, ToGPU: x.toGPU,
						Depart: depart, Arrive: arrive,
					})
					h.Push(arrive, event{kind: 1, xfer: xi})
				}
			}
			if now > tr.Latency {
				tr.Latency = now
			}
			next[ev.gpu]++
			started[ev.gpu] = false
			startReady(ev.gpu)
		case 1: // transfer arrived
			x := xfers[ev.xfer]
			for _, sk := range x.dstStages {
				waiting[sk]--
			}
			startReady(x.toGPU)
		}
	}
	if done != total {
		return nil, fmt.Errorf("sim: deadlock, %d of %d stages executed: %w", done, total, graph.ErrCycle)
	}
	sort.Slice(tr.Stages, func(i, j int) bool {
		// Exact IEEE inequality: see eventq.Earlier.
		if tr.Stages[i].Start != tr.Stages[j].Start { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
			return tr.Stages[i].Start < tr.Stages[j].Start
		}
		if tr.Stages[i].GPU != tr.Stages[j].GPU {
			return tr.Stages[i].GPU < tr.Stages[j].GPU
		}
		return tr.Stages[i].Index < tr.Stages[j].Index
	})
	return tr, nil
}
