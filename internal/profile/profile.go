// Package profile reproduces the measurement layer of HIOS: the paper's
// scheduler is profile-based, so before optimization it measures the
// execution time of every operator, of every candidate group of concurrent
// operators, and of every possible inter-GPU transfer. Fig. 14's "time
// cost of scheduling optimization" is dominated by this profiling, which
// is why IOS — whose dynamic program probes exponentially more operator
// groups — pays far more than HIOS-LP/MR as inputs grow.
//
// CostTable wraps any cost.Model, memoizes every distinct probe exactly as
// a real profiler caches measurements, and accounts the simulated wall
// time a real profiler would have spent: (Warmup + Repeats) executions of
// the probed kernel or transfer.
package profile

import (
	"encoding/binary"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// Defaults for measurement repetition, matching the paper's methodology of
// averaging 36 runs after warm-up.
const (
	DefaultWarmup  = 2
	DefaultRepeats = 36
)

// CostTable is a memoizing, probe-counting cost.Model.
//
// One RWMutex guards the three probe maps and the simulated profiler
// time. A lookup takes the read lock only, so concurrent sweeps sharing
// one table scale with cores once the working set is memoized. A miss
// prices the probe outside any lock and then, in one write-locked
// section, re-checks, inserts and charges the simulated time: a racer
// that lost stores and charges nothing, and a Stats snapshot never pairs
// a probe count with the time of a different count. Concurrent use
// requires the wrapped model's own lookups to be safe for concurrent
// readers (every model in internal/cost is: they are pure functions over
// immutable graph data).
//
// The IOS dynamic program probes through the cost.MemoModel batch
// instead: PriceStage prices a first probe without recording it, and
// CommitStages records a block's first probes in one write-locked section
// (DESIGN.md §10).
//
// Determinism under concurrency: memoized values and probe counts are
// exact regardless of interleaving. Only SimulatedMs accumulates in
// insert order, so a table probed from several goroutines may report
// last-ulp differences across runs; probe it from one goroutine (as
// Fig. 14 does) when the exact float matters.
type CostTable struct {
	inner   cost.Model
	pure    cost.ItemModel // inner, when PriceStage may price it without recording
	warmup  int
	repeats int

	// ordered is set, in the section that records it, once a stage of
	// three or more members is recorded. Such a price can depend on the
	// order its members were passed in (the contention fold sums in call
	// order), so PriceStage must then return the recorded value rather
	// than its own. One or two members sum the same in either order.
	ordered atomic.Bool

	mu     sync.RWMutex // guards every field below
	ops    map[graph.OpID]units.Millis
	stages stageMap
	comms  map[[2]graph.OpID]units.Millis
	simMs  units.Millis
}

var (
	_ cost.Model     = (*CostTable)(nil)
	_ cost.MemoModel = (*CostTable)(nil)
)

// NewTable wraps m with measurement accounting. Non-positive warmup or
// repeats select the defaults.
func NewTable(m cost.Model, warmup, repeats int) *CostTable {
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	if repeats <= 0 {
		repeats = DefaultRepeats
	}
	pure, _ := m.(cost.ItemModel)
	return &CostTable{
		inner:   m,
		pure:    pure,
		warmup:  warmup,
		repeats: repeats,
		ops:     make(map[graph.OpID]units.Millis),
		stages:  newStageMap(),
		comms:   make(map[[2]graph.OpID]units.Millis),
	}
}

// PriceStage implements cost.MemoModel. Over an inner cost.ItemModel, a
// pure function, it prices ops without recording them, so the caller's
// CommitStages charges them later in the same order. A stage of three or
// more members already recorded keeps its recorded price, which another
// member order may have produced. Over any other inner model it is
// StageTime.
func (t *CostTable) PriceStage(ops []graph.OpID) units.Millis {
	if t.pure == nil {
		return t.StageTime(ops)
	}
	if len(ops) == 1 {
		return t.pure.OpTime(ops[0])
	}
	if len(ops) > 2 && t.ordered.Load() {
		t.mu.RLock()
		x, ok := t.stages.lookup(ops)
		t.mu.RUnlock()
		if ok {
			return x
		}
	}
	return t.pure.StageTime(ops)
}

// CommitStages implements cost.MemoModel: it records the batch's new
// measurements in batch order and charges each one its simulated
// profiler time, exactly as StageTime would have on first probe; a stage
// recorded first by another caller keeps its value and is not charged.
// A batch at least as large as the stage map gets a map sized for both
// before the lock is taken, so the one write-locked section copies and
// inserts without growing it. Over an impure inner model PriceStage has
// recorded every probe already, and there is nothing to do.
func (t *CostTable) CommitStages(ops []graph.OpID, batch []cost.MemoProbe) {
	if t.pure == nil || len(batch) == 0 {
		return
	}
	t.mu.RLock()
	have := len(t.stages.vals)
	t.mu.RUnlock()
	var sized map[stageKey]units.Millis
	if len(batch) >= have {
		sized = make(map[stageKey]units.Millis, have+len(batch))
	}
	var buf [cost.MemoWidth]graph.OpID
	ordered := false
	t.mu.Lock()
	if sized != nil {
		maps.Copy(sized, t.stages.vals)
		t.stages.vals = sized
	}
	for i := range batch {
		p := &batch[i]
		stage := buf[:0]
		for _, x := range p.Members {
			if x == 0 {
				break
			}
			stage = append(stage, ops[x-1])
		}
		if len(stage) == 1 {
			store(t, t.ops, stage[0], p.Time)
			continue
		}
		key, ok := inlineKey(stage)
		if !ok { // an ID past 2^32-2: interned as StageTime would
			key = t.stages.intern(spillSig(stage))
		}
		store(t, t.stages.vals, key, p.Time)
		ordered = ordered || len(stage) > 2
	}
	if ordered {
		t.ordered.Store(true)
	}
	t.mu.Unlock()
}

// store records x as k's measurement unless a racer stored one first,
// and returns the value m holds for k afterwards. Only a new measurement
// is charged its simulated profiler time. The caller holds t.mu.
func store[K comparable](t *CostTable, m map[K]units.Millis, k K, x units.Millis) units.Millis {
	if old, ok := m[k]; ok {
		return old
	}
	m[k] = x
	t.simMs += x.Scale(float64(t.warmup + t.repeats))
	return x
}

// OpTime implements cost.Model.
func (t *CostTable) OpTime(v graph.OpID) units.Millis {
	t.mu.RLock()
	x, ok := t.ops[v]
	t.mu.RUnlock()
	if ok {
		return x
	}
	x = t.inner.OpTime(v)
	t.mu.Lock()
	x = store(t, t.ops, v, x)
	t.mu.Unlock()
	return x
}

// CommTime implements cost.Model.
func (t *CostTable) CommTime(u, v graph.OpID) units.Millis {
	key := [2]graph.OpID{u, v}
	t.mu.RLock()
	x, ok := t.comms[key]
	t.mu.RUnlock()
	if ok {
		return x
	}
	x = t.inner.CommTime(u, v)
	t.mu.Lock()
	x = store(t, t.comms, key, x)
	t.mu.Unlock()
	return x
}

// StageTime implements cost.Model. Probes are keyed by the sorted member
// set, as a profiler measures each distinct concurrent group once. The
// key is built once per call and serves both the lookup and the insert.
func (t *CostTable) StageTime(ops []graph.OpID) units.Millis {
	if len(ops) == 1 {
		return t.OpTime(ops[0])
	}
	key, ok := inlineKey(ops)
	if !ok {
		return t.spilledStageTime(ops)
	}
	t.mu.RLock()
	x, ok := t.stages.vals[key]
	t.mu.RUnlock()
	if ok {
		return x
	}
	x = t.inner.StageTime(ops)
	t.mu.Lock()
	x = store(t, t.stages.vals, key, x)
	if len(ops) > 2 && !t.ordered.Load() {
		t.ordered.Store(true)
	}
	t.mu.Unlock()
	return x
}

// spilledStageTime is StageTime for a stage too wide, or with an ID too
// large, for an inline key. No scheduler probes one at its default
// options, so it trades speed for simplicity: the exact encoding is
// built on every call.
func (t *CostTable) spilledStageTime(ops []graph.OpID) units.Millis {
	sig := spillSig(ops)
	t.mu.RLock()
	x, ok := t.stages.spilled(sig)
	t.mu.RUnlock()
	if ok {
		return x
	}
	x = t.inner.StageTime(ops)
	t.mu.Lock()
	x = store(t, t.stages.vals, t.stages.intern(sig), x)
	t.ordered.Store(true)
	t.mu.Unlock()
	return x
}

// Stats summarizes the measurements a real profiler would have performed.
type Stats struct {
	// OpProbes, StageProbes, CommProbes count distinct measurements.
	OpProbes, StageProbes, CommProbes int
	// SimulatedMs is the wall time those measurements would have cost:
	// (warmup + repeats) executions each.
	SimulatedMs units.Millis
}

// Probes returns the total number of distinct measurements.
func (s Stats) Probes() int { return s.OpProbes + s.StageProbes + s.CommProbes }

// Stats returns the accounting snapshot. It is read under one lock, so
// the counts and SimulatedMs always describe the same set of
// measurements, even while other goroutines probe.
func (t *CostTable) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		OpProbes:    len(t.ops),
		StageProbes: len(t.stages.vals),
		CommProbes:  len(t.comms),
		SimulatedMs: t.simMs,
	}
}

// stageKeyInline is how many members an inline stageKey holds. The IOS
// dynamic program, the hot caller, never probes stages wider than its
// MaxStage default of 8.
const stageKeyInline = 8

// stageKey identifies a stage probe by its sorted member set. An inline
// key holds id+1 of each member, ascending and zero-padded, so its first
// word is never zero for a non-empty stage. A stage with more than
// stageKeyInline members, or with an ID that id+1 cannot carry in 32
// bits, is spilled instead: its exact encoding is interned in the
// stageMap and its key is {0, ordinal}. The key holds no pointers, so the
// map hashes and compares its 32 bytes directly; the 88-byte key with a
// spill string it replaced made the map lookups a quarter of a profiled
// IOS solve.
type stageKey [stageKeyInline]uint32

// inlineKey builds ops' inline key, or reports false when ops must spill.
// Members are insertion-sorted into place: stages are tiny.
func inlineKey(ops []graph.OpID) (stageKey, bool) {
	var k stageKey
	if len(ops) > stageKeyInline {
		return k, false
	}
	for i, v := range ops {
		if uint64(v) >= math.MaxUint32 { // negative IDs wrap to huge values
			return k, false
		}
		x := uint32(v) + 1
		j := i
		for ; j > 0 && k[j-1] > x; j-- {
			k[j] = k[j-1]
		}
		k[j] = x
	}
	return k, true
}

// spillSig is the exact encoding of a spilled stage: its members sorted,
// as big-endian 8-byte words. Up to 64 members are insertion-sorted on a
// stack array (stages are nearly sorted already), so the string is the
// only allocation.
func spillSig(ops []graph.OpID) string {
	var arr [64]graph.OpID
	var buf [8 * 64]byte
	sorted, enc := arr[:0], buf[:0]
	if len(ops) > len(arr) {
		sorted, enc = make([]graph.OpID, 0, len(ops)), make([]byte, 0, 8*len(ops))
	}
	for _, v := range ops {
		j := len(sorted)
		sorted = append(sorted, v)
		for ; j > 0 && sorted[j-1] > v; j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = v
	}
	for _, v := range sorted {
		enc = binary.BigEndian.AppendUint64(enc, uint64(v))
	}
	return string(enc)
}

// stageMap is one table's stage measurements under compact keys, plus
// the interning of spilled stages. It is not safe for concurrent use;
// CostTable guards it with its lock.
type stageMap struct {
	vals   map[stageKey]units.Millis
	ords   map[string]uint32 // spillSig -> ordinal, from 1
	spills []string          // ordinal-1 -> spillSig
}

func newStageMap() stageMap {
	return stageMap{vals: make(map[stageKey]units.Millis), ords: make(map[string]uint32)}
}

// key returns ops' key, interning a spilled stage not seen before.
func (sm *stageMap) key(ops []graph.OpID) stageKey {
	if k, ok := inlineKey(ops); ok {
		return k
	}
	return sm.intern(spillSig(ops))
}

// lookup returns the measurement recorded for ops, if any.
func (sm *stageMap) lookup(ops []graph.OpID) (units.Millis, bool) {
	if k, ok := inlineKey(ops); ok {
		x, ok := sm.vals[k]
		return x, ok
	}
	return sm.spilled(spillSig(ops))
}

// spilled returns the measurement recorded for a spilled stage, if any.
func (sm *stageMap) spilled(sig string) (units.Millis, bool) {
	ord, ok := sm.ords[sig]
	if !ok {
		return 0, false
	}
	x, ok := sm.vals[stageKey{0, ord}]
	return x, ok
}

// intern returns the key of a spilled stage, assigning the next ordinal
// to a signature not seen before.
func (sm *stageMap) intern(sig string) stageKey {
	ord, ok := sm.ords[sig]
	if !ok {
		sm.spills = append(sm.spills, sig)
		ord = uint32(len(sm.spills))
		sm.ords[sig] = ord
	}
	return stageKey{0, ord}
}

// members reconstructs the sorted member set k encodes.
func (sm *stageMap) members(k stageKey) []graph.OpID {
	if k[0] == 0 && k[1] != 0 {
		sig := sm.spills[k[1]-1]
		out := make([]graph.OpID, 0, len(sig)/8)
		for i := 0; i+8 <= len(sig); i += 8 {
			var id uint64
			for _, c := range []byte(sig[i : i+8]) {
				id = id<<8 | uint64(c)
			}
			out = append(out, graph.OpID(id))
		}
		return out
	}
	out := make([]graph.OpID, 0, stageKeyInline)
	for _, x := range k {
		if x == 0 {
			break
		}
		out = append(out, graph.OpID(x-1))
	}
	return out
}
