// Package cost defines the cost-model contract the HIOS schedulers consume
// and provides the standard implementations.
//
// Following §III-A of the paper, a scheduler needs exactly three
// quantities, all in milliseconds:
//
//   - t(v): execution time of operator v running alone on one GPU;
//   - t(u, v): transfer time of u's output tensor between two GPUs,
//     charged only when u and v are mapped to different devices;
//   - t(S): total time of a set S of independent operators launched
//     concurrently (one CUDA stream each) on a single GPU.
//
// On the paper's testbed these come from profiling real kernels with cuDNN;
// here they come from graph weights (simulation experiments, §V) or from
// the analytic GPU device model in internal/gpu (real-system experiments,
// §VI). The contention model below reproduces the behaviour the paper
// measures in Fig. 1: concurrency helps while the GPU is under-utilized and
// hurts once concurrent kernels saturate it.
package cost

import (
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// Model supplies the three cost quantities of §III-A.
type Model interface {
	// OpTime returns t(v).
	OpTime(v graph.OpID) units.Millis
	// CommTime returns t(u, v) for the dependency u -> v, assuming the
	// endpoints run on different GPUs. Implementations return 0 when no
	// such dependency exists.
	CommTime(u, v graph.OpID) units.Millis
	// StageTime returns t(S): the makespan of the given independent
	// operators starting simultaneously on one GPU. For a single
	// operator it must equal OpTime. StageTime must be symmetric in the
	// order of its arguments and monotone: adding an operator never
	// decreases it.
	StageTime(ops []graph.OpID) units.Millis
}

// Item is one operator's contribution to a concurrent stage.
type Item struct {
	// Time is the operator's solo execution time t(v).
	Time units.Millis
	// Util is the fraction of the GPU the operator saturates alone,
	// in (0, 1].
	Util float64
}

// ItemModel is the contract behind the IOS dynamic program's fast path
// and its cross-sweep block cache (internal/dpcache): a model whose
// StageTime is EXACTLY Contention.StageTimeItems over fixed per-operator
// items. Implementations promise, bit for bit,
//
//	StageTime(ops) == Contention().StageTimeItems([StageItem(v) for v in ops])
//
// for every operator list, so a caller may fold StageItem values through
// Contention.accumulate/combine incrementally — or memoize a whole block
// solve by its item values — and obtain byte-identical results.
//
// Only models that are pure functions of their items may implement this.
// profile.CostTable and FrozenModel do NOT: their StageTime carries probe
// accounting (the Fig. 14 profiling-cost experiment) or miss counting,
// and a fast path that never called StageTime would corrupt the counts.
// A caller may still batch the probes of a MemoModel.
type ItemModel interface {
	Model
	// Contention returns the stage pricing the model folds items with.
	Contention() Contention
	// StageItem returns operator v's stage contribution. The Util field
	// is returned unclamped — clamping is Contention.accumulate's job,
	// exactly as in StageTime.
	StageItem(v graph.OpID) Item
}

// MemoWidth is the widest stage a MemoProbe names. It matches the IOS
// dynamic program's MaxStage default.
const MemoWidth = 8

// MemoProbe is one first probe of a MemoModel batch: a stage of at most
// MemoWidth members, named by their positions + 1 in the batch's operator
// list, ascending and zero-padded, and the price PriceStage returned for
// it.
type MemoProbe struct {
	Members [MemoWidth]uint16
	Time    units.Millis
}

// MemoModel is the contract behind the IOS dynamic program's per-block
// stage memo: a model that memoizes StageTime by member set and takes a
// caller's first probes in one batch. A caller keeps its own memo and
//
//   - prices the first probe of each member set with PriceStage, which
//     records nothing;
//   - answers a repeat from its memo, without calling the model;
//   - hands the first probes, in first-probe order, to CommitStages at
//     the end of the batch and before any other call to the model, so
//     a stage wider than MemoWidth flushes the batch before its
//     StageTime call.
//
// An implementation promises that this sequence returns, bit for bit, the
// values that calling StageTime on every probe would have returned, and
// leaves the same observable state: the same probe counts, the same
// recorded values, the same simulated time, charged in the same order. A
// stage recorded before the commit keeps its value and is not charged
// again, as a repeated StageTime would not charge it.
//
// PriceStage may skip the recording only when the price is a pure
// function of the call. profile.CostTable takes that shortcut for an
// inner ItemModel, whose contract makes it one; any other inner model is
// priced and recorded through StageTime at once, and CommitStages then
// finds the batch already recorded. Models that observe every call must
// not implement MemoModel: FrozenModel counts each miss, and a
// probe-recording test model hashes the call sequence.
type MemoModel interface {
	Model
	// PriceStage returns StageTime(ops) for the first probe of ops'
	// member set in the caller's batch.
	PriceStage(ops []graph.OpID) units.Millis
	// CommitStages records a batch of PriceStage probes in batch order;
	// each probe's members index ops.
	CommitStages(ops []graph.OpID, batch []MemoProbe)
}

// Contention is the concurrent-execution model for one GPU.
//
// A stage S of independent operators launched on separate streams takes
//
//	t(S) = max( max_v t(v), Σ_v t(v)·u(v) ) · (1 + Alpha·max(0, Σ_v u(v) − 1))
//
// The first factor is a work-conservation bound: the stage can finish no
// earlier than its longest member, and the GPU can retire at most one
// GPU-second of normalized work (time × utilization) per second. The second
// factor charges a contention and context-switch penalty, growing with the
// amount of oversubscription, which is what makes two large kernels slower
// in parallel than in sequence (paper Fig. 1, image sizes ≥ 128) while two
// small kernels still overlap almost perfectly (sizes ≤ 64).
type Contention struct {
	// Alpha scales the oversubscription penalty. The paper's Fig. 1
	// shows parallel execution of two saturating convolutions running
	// up to ~20% slower than sequential; Alpha = 0.2 reproduces that.
	Alpha float64
	// DefaultUtil substitutes for operators whose utilization is
	// unknown (Op.Util == 0).
	DefaultUtil float64
}

// DefaultContention is the calibration used across the experiments.
func DefaultContention() Contention {
	return Contention{Alpha: 0.2, DefaultUtil: 0.35}
}

// StageTimeItems evaluates t(S) for explicit items.
func (c Contention) StageTimeItems(items []Item) units.Millis {
	if len(items) == 0 {
		return 0
	}
	var maxT, work units.Millis
	var util float64
	for _, it := range items {
		maxT, work, util = c.Accumulate(maxT, work, util, it.Time, it.Util)
	}
	return c.Combine(maxT, work, util)
}

// accumulate folds one operator into the stage aggregates. work is the
// utilization-weighted time Σ t(v)·u(v), still dimensionally time.
func (c Contention) Accumulate(maxT, work units.Millis, util float64, t units.Millis, u float64) (units.Millis, units.Millis, float64) {
	if u <= 0 {
		u = c.DefaultUtil
	}
	if u > 1 {
		u = 1
	}
	if t > maxT {
		maxT = t
	}
	return maxT, work + t.Scale(u), util + u
}

// combine turns the stage aggregates into t(S).
func (c Contention) Combine(maxT, work units.Millis, util float64) units.Millis {
	t := maxT
	if work > t {
		t = work
	}
	if over := util - 1; over > 0 {
		t = t.Scale(1 + c.Alpha*over)
	}
	return t
}

// GraphModel is a Model backed directly by a graph's vertex and edge
// weights, with concurrent stages priced by a Contention model. This is the
// configuration of the paper's simulation study (§V): op times drawn
// uniformly from [0.1, 4] ms, transfer times attached to edges, and
// utilization derived from op size.
type GraphModel struct {
	g *graph.Graph
	c Contention
}

var _ Model = (*GraphModel)(nil)

// FromGraph builds a GraphModel over g.
func FromGraph(g *graph.Graph, c Contention) *GraphModel {
	return &GraphModel{g: g, c: c}
}

// OpTime implements Model. Graph vertex weights are milliseconds by
// convention (graph.Op.Time); this is the boundary where they become
// typed.
func (m *GraphModel) OpTime(v graph.OpID) units.Millis { return units.Millis(m.g.Time(v)) }

// CommTime implements Model.
func (m *GraphModel) CommTime(u, v graph.OpID) units.Millis {
	t, _ := m.g.TransferTime(u, v)
	return units.Millis(t)
}

// StageTime implements Model. It runs allocation-free: the IOS dynamic
// program calls it millions of times.
func (m *GraphModel) StageTime(ops []graph.OpID) units.Millis {
	if len(ops) == 1 {
		return units.Millis(m.g.Time(ops[0]))
	}
	var maxT, work units.Millis
	var util float64
	for _, id := range ops {
		op := m.g.Op(id)
		maxT, work, util = m.c.Accumulate(maxT, work, util, units.Millis(op.Time), op.Util)
	}
	return m.c.Combine(maxT, work, util)
}

// Contention exposes the stage pricing used by the model.
func (m *GraphModel) Contention() Contention { return m.c }

var _ ItemModel = (*GraphModel)(nil)

// StageItem implements ItemModel: the graph's vertex weight and raw
// utilization. StageTime is the accumulate/combine fold of exactly these
// values (the len==1 special case is also bit-identical: with u clamped
// into (0, 1], max(t, t·u) is t and no oversubscription scale fires), so
// GraphModel satisfies the ItemModel contract.
func (m *GraphModel) StageItem(v graph.OpID) Item {
	op := m.g.Op(v)
	return Item{Time: units.Millis(op.Time), Util: op.Util}
}

// SerialModel prices stages as the sum of member times: no intra-GPU
// overlap at all. Useful as a pessimistic baseline and in tests.
type SerialModel struct{ Inner Model }

var _ Model = SerialModel{}

// OpTime implements Model.
func (m SerialModel) OpTime(v graph.OpID) units.Millis { return m.Inner.OpTime(v) }

// CommTime implements Model.
func (m SerialModel) CommTime(u, v graph.OpID) units.Millis { return m.Inner.CommTime(u, v) }

// StageTime implements Model.
func (m SerialModel) StageTime(ops []graph.OpID) units.Millis {
	var s units.Millis
	for _, v := range ops {
		s += m.Inner.OpTime(v)
	}
	return s
}
