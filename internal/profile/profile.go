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
	"math"
	"slices"
	"sync"

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
// A measurement lives in exactly one of two places: the three probe maps,
// or a segment, the immutable record of one IOS block's committed batch
// (see CommitStages). One RWMutex guards the maps, the list of segments,
// the per-operator owner index and the simulated profiler time; a
// segment, lookup index included, is complete before it is committed and
// is read without the lock. A lookup takes the read lock only, so
// concurrent sweeps sharing one table scale with cores once the working
// set is memoized. A miss prices the probe outside any lock and then, in
// one write-locked section, re-checks the map and the segments, inserts
// and charges the simulated time: a racer that lost stores and charges
// nothing, and a Stats snapshot never pairs a probe count with the time
// of a different count. Concurrent use requires the wrapped model's own
// lookups to be safe for concurrent readers (every model in internal/cost
// is: they are pure functions over immutable graph data).
//
// The IOS dynamic program probes through the cost.MemoModel batch
// instead: PriceStage prices a first probe without recording it, and
// CommitStages records a block's first probes in one write-locked section
// (DESIGN.md §10).
//
// Determinism under concurrency: every stage is priced with its members
// in ascending ID order, so memoized values and probe counts are exact
// regardless of interleaving. Only SimulatedMs accumulates in insert
// order, so a table probed from several goroutines may report last-ulp
// differences across runs; probe it from one goroutine (as Fig. 14 does)
// when the exact float matters.
type CostTable struct {
	inner   cost.Model
	pure    cost.ItemModel // inner, when PriceStage may price it without recording
	warmup  int
	repeats int

	mu     sync.RWMutex // guards every field below
	ops    map[graph.OpID]units.Millis
	stages stageMap
	comms  map[[2]graph.OpID]units.Millis
	simMs  units.Millis

	segs      []*segment // committed blocks, append-only
	owners    []opOwner  // by operator ID below segmentIDs
	segOps    int        // one-operator probes the segments hold
	segStages int        // multi-operator probes the segments hold
}

// segmentIDs bounds the operator IDs a segment may own, and so the owner
// index: a block with a larger ID, however sparse, takes the map path.
const segmentIDs = 1 << 16

// opOwner is an operator's entry in the owner index.
type opOwner struct {
	seg    uint32 // index + 1 into segs of the segment that owns it; 0: none
	pos    uint16 // its position in that segment's operator list
	mapped bool   // the maps hold a probe over it
}

// segment is one block's committed batch, stored as CommitStages received
// it: the block's operator list and its first probes, whose members name
// positions + 1 in that list, ascending, with the index that finds a
// probe by its members. All three are immutable.
type segment struct {
	ops    []graph.OpID
	probes []cost.MemoProbe
	index  []uint32 // open addressing over probes: entry + 1, 0 for empty
}

// segKey is a stage's members as segment positions + 1, ascending and
// zero-padded: the form of cost.MemoProbe.Members.
type segKey = [cost.MemoWidth]uint16

// hashSegKey mixes a segKey's 16 bytes into a table position.
func hashSegKey(k *segKey) uint64 {
	lo := uint64(k[0]) | uint64(k[1])<<16 | uint64(k[2])<<32 | uint64(k[3])<<48
	hi := uint64(k[4]) | uint64(k[5])<<16 | uint64(k[6])<<32 | uint64(k[7])<<48
	h := (lo ^ hi*0xff51afd7ed558ccd) * 0xc4ceb9fe1a85ec53 // murmur3's fmix64 multipliers
	return h ^ h>>32
}

// build fills the lookup index at a load of at most one half.
func (sg *segment) build() {
	n := 2
	for n < 2*len(sg.probes) {
		n *= 2
	}
	sg.index = make([]uint32, n)
	mask := uint64(n - 1)
	for e := range sg.probes {
		i := hashSegKey(&sg.probes[e].Members) & mask
		for sg.index[i] != 0 {
			i = (i + 1) & mask
		}
		sg.index[i] = uint32(e + 1)
	}
}

// time returns the measurement the segment holds for the stage whose
// members are k.
func (sg *segment) time(k *segKey) (units.Millis, bool) {
	mask := uint64(len(sg.index) - 1)
	for i := hashSegKey(k) & mask; ; i = (i + 1) & mask {
		e := sg.index[i]
		if e == 0 {
			return 0, false
		}
		if p := &sg.probes[e-1]; p.Members == *k {
			return p.Time, true
		}
	}
}

// segmentOf returns the segment that owns every operator of ops, with
// their positions in it as a segKey, or nil when no one segment does.
// The caller holds t.mu.
func (t *CostTable) segmentOf(ops []graph.OpID) (*segment, segKey) {
	var k segKey
	if len(t.segs) == 0 || len(ops) == 0 || len(ops) > cost.MemoWidth {
		return nil, k
	}
	var seg uint32
	for i, v := range ops {
		if uint64(v) >= uint64(len(t.owners)) {
			return nil, k
		}
		o := t.owners[v]
		if o.seg == 0 || i > 0 && o.seg != seg {
			return nil, k
		}
		seg = o.seg
		x := o.pos + 1
		j := i
		for ; j > 0 && k[j-1] > x; j-- {
			k[j] = k[j-1]
		}
		k[j] = x
	}
	return t.segs[seg-1], k
}

// fresh reports whether a block over ops may be committed as a segment:
// every operator is in the owner index's range, and no segment owns it
// and no map entry holds a probe over it. The caller holds t.mu.
func (t *CostTable) fresh(ops []graph.OpID) bool {
	for _, v := range ops {
		if uint64(v) >= segmentIDs || uint64(v) < uint64(len(t.owners)) && t.owners[v] != (opOwner{}) {
			return false
		}
	}
	return true
}

// markMapped records in the owner index that the maps hold a probe over
// each operator of ops. The caller holds t.mu.
func (t *CostTable) markMapped(ops []graph.OpID) {
	for _, v := range ops {
		if uint64(v) >= segmentIDs {
			continue
		}
		for len(t.owners) <= int(v) {
			t.owners = append(t.owners, opOwner{})
		}
		t.owners[v].mapped = true
	}
}

// addSegment commits seg when its block is still fresh, charging its
// probes in batch order, and reports whether it did. A block that lists
// an operator twice is not committed, so one of distinct IDs below
// segmentIDs has every position in range of opOwner.pos. The caller
// holds t.mu.
func (t *CostTable) addSegment(seg *segment) bool {
	if !t.fresh(seg.ops) {
		return false
	}
	id := uint32(len(t.segs) + 1)
	for i, v := range seg.ops {
		for len(t.owners) <= int(v) {
			t.owners = append(t.owners, opOwner{})
		}
		if t.owners[v].seg == id {
			for _, u := range seg.ops[:i] {
				t.owners[u] = opOwner{}
			}
			return false
		}
		t.owners[v] = opOwner{seg: id, pos: uint16(i)}
	}
	t.segs = append(t.segs, seg)
	runs := float64(t.warmup + t.repeats)
	for i := range seg.probes {
		p := &seg.probes[i]
		if p.Members[1] == 0 {
			t.segOps++
		} else {
			t.segStages++
		}
		t.simMs += p.Time.Scale(runs)
	}
	return true
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
// pure function, it prices ops as StageTime would without recording them,
// so the caller's CommitStages charges them later in the same order. Over
// any other inner model it is StageTime.
func (t *CostTable) PriceStage(ops []graph.OpID) units.Millis {
	if t.pure == nil {
		return t.StageTime(ops)
	}
	return t.price(ops)
}

// price measures a stage on the inner model with its members in
// ascending ID order, so the price is a function of the member set: the
// contention fold sums in call order, and three or more members can price
// one ulp apart in two orders. Ascending members, and two members of an
// ItemModel (whose fold sums them alike in either order), are priced as
// passed; other ItemModel stages of up to MemoWidth members fold the
// items of a sorted stack copy, which passing it to StageTime through the
// interface would move to the heap.
func (t *CostTable) price(ops []graph.OpID) units.Millis {
	if slices.IsSorted(ops) || t.pure != nil && len(ops) == 2 {
		return t.inner.StageTime(ops)
	}
	if t.pure == nil || len(ops) > cost.MemoWidth {
		return t.inner.StageTime(sortInto(make([]graph.OpID, len(ops)), ops))
	}
	var buf [cost.MemoWidth]graph.OpID
	c := t.pure.Contention()
	var maxT, work units.Millis
	var util float64
	for _, v := range sortInto(buf[:len(ops)], ops) {
		it := t.pure.StageItem(v)
		maxT, work, util = c.Accumulate(maxT, work, util, it.Time, it.Util)
	}
	return c.Combine(maxT, work, util)
}

// CommitStages implements cost.MemoModel: it records the batch's new
// measurements in batch order and charges each one its simulated
// profiler time, exactly as StageTime would have on first probe; a stage
// recorded first by another caller keeps its value and is not charged.
//
// When no probe over any of the block's operators has been recorded yet
// (every block of a fresh table), the batch is stored as one segment: a
// copy of ops and of the batch, with its lookup index, made before the
// lock is taken, so the write-locked section only claims the operators
// in the owner index and charges the probes. Any other block replays its
// batch through StageTime, in batch order: the per-call path the batch
// promises to match, which skips a probe already recorded. Over an
// impure inner model PriceStage has recorded every probe already, and
// there is nothing to do.
func (t *CostTable) CommitStages(ops []graph.OpID, batch []cost.MemoProbe) {
	if t.pure == nil || len(batch) == 0 {
		return
	}
	t.mu.RLock()
	fresh := t.fresh(ops)
	t.mu.RUnlock()
	if fresh {
		seg := &segment{ops: slices.Clone(ops), probes: slices.Clone(batch)}
		seg.build()
		t.mu.Lock()
		added := t.addSegment(seg)
		t.mu.Unlock()
		if added {
			return
		}
	}
	stage := make([]graph.OpID, 0, cost.MemoWidth)
	for i := range batch {
		stage = stage[:0]
		for _, x := range batch[i].Members {
			if x == 0 {
				break
			}
			stage = append(stage, ops[x-1])
		}
		t.StageTime(stage)
	}
}

// store records x as k's measurement, the probe over the operators ops
// (nil for a transfer), unless m or the segment that owns every member
// of ops holds one already, a racer's or a committed block's, and
// returns the value held afterwards. Only a new measurement is charged
// its simulated profiler time, and the owner index learns that the maps
// hold a probe over ops. The caller holds t.mu.
func store[K comparable](t *CostTable, m map[K]units.Millis, k K, ops []graph.OpID, x units.Millis) units.Millis {
	if old, ok := m[k]; ok {
		return old
	}
	if seg, sk := t.segmentOf(ops); seg != nil {
		if old, ok := seg.time(&sk); ok {
			return old
		}
	}
	t.markMapped(ops)
	m[k] = x
	t.simMs += x.Scale(float64(t.warmup + t.repeats))
	return x
}

// OpTime implements cost.Model. It looks in the map first, then in the
// segment that owns v.
func (t *CostTable) OpTime(v graph.OpID) units.Millis {
	one := [1]graph.OpID{v}
	t.mu.RLock()
	x, ok := t.ops[v]
	var seg *segment
	var k segKey
	if !ok {
		seg, k = t.segmentOf(one[:])
	}
	t.mu.RUnlock()
	if ok {
		return x
	}
	if seg != nil {
		if x, ok := seg.time(&k); ok {
			return x
		}
	}
	x = t.inner.OpTime(v)
	t.mu.Lock()
	x = store(t, t.ops, v, one[:], x)
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
	x = store(t, t.comms, key, nil, x)
	t.mu.Unlock()
	return x
}

// StageTime implements cost.Model. Probes are keyed, and priced, by the
// sorted member set, as a profiler measures each distinct concurrent
// group once. The key serves both the lookup and the insert. A lookup
// reads the map first, then the segment that owns every member.
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
	var seg *segment
	var k segKey
	if !ok {
		seg, k = t.segmentOf(ops)
	}
	t.mu.RUnlock()
	if ok {
		return x
	}
	if seg != nil {
		if x, ok := seg.time(&k); ok {
			return x
		}
	}
	x = t.price(ops)
	t.mu.Lock()
	x = store(t, t.stages.vals, key, ops, x)
	t.mu.Unlock()
	return x
}

// spilledStageTime is StageTime for a stage too wide, or with an ID too
// large, for an inline key. No segment holds such a stage. No scheduler
// probes one at its default options, so it trades speed for simplicity:
// the exact encoding is built on every call.
func (t *CostTable) spilledStageTime(ops []graph.OpID) units.Millis {
	sig := spillSig(ops)
	t.mu.RLock()
	x, ok := t.stages.spilled(sig)
	t.mu.RUnlock()
	if ok {
		return x
	}
	x = t.price(ops)
	t.mu.Lock()
	x = store(t, t.stages.vals, t.stages.intern(sig), ops, x)
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
		OpProbes:    len(t.ops) + t.segOps,
		StageProbes: len(t.stages.vals) + t.segStages,
		CommProbes:  len(t.comms),
		SimulatedMs: t.simMs,
	}
}

// stageKey identifies a stage probe by its sorted member set. An inline
// key holds id+1 of each member, ascending and zero-padded, so its first
// word is never zero for a non-empty stage. A stage with more than
// cost.MemoWidth members (the IOS dynamic program, the hot caller, probes
// none at its defaults), or with an ID that id+1 cannot carry in 32 bits,
// is spilled instead: its exact encoding is interned in the stageMap and
// its key is {0, ordinal}. The key holds no pointers, so the map hashes
// and compares its 32 bytes directly; the 88-byte key with a spill string
// it replaced made the map lookups a quarter of a profiled IOS solve.
type stageKey [cost.MemoWidth]uint32

// inlineKey builds ops' inline key, or reports false when ops must spill.
// Members are insertion-sorted into place: stages are tiny.
func inlineKey(ops []graph.OpID) (stageKey, bool) {
	var k stageKey
	if len(ops) > cost.MemoWidth {
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
// as big-endian 8-byte words. Up to 64 members are sorted on a stack
// array, so the string is the only allocation.
func spillSig(ops []graph.OpID) string {
	var arr [64]graph.OpID
	var buf [8 * 64]byte
	sorted, enc := arr[:0], buf[:0]
	if len(ops) > len(arr) {
		sorted, enc = make([]graph.OpID, 0, len(ops)), make([]byte, 0, 8*len(ops))
	}
	for _, v := range sortInto(sorted[:len(ops)], ops) {
		enc = binary.BigEndian.AppendUint64(enc, uint64(v))
	}
	return string(enc)
}

// sortInto writes ops to dst, which has their length, in ascending
// order. It insertion-sorts: stages are small and often nearly sorted.
func sortInto(dst, ops []graph.OpID) []graph.OpID {
	for i, v := range ops {
		j := i
		for ; j > 0 && dst[j-1] > v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = v
	}
	return dst
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
			out = append(out, graph.OpID(binary.BigEndian.Uint64([]byte(sig[i:i+8]))))
		}
		return out
	}
	out := make([]graph.OpID, 0, cost.MemoWidth)
	for _, x := range k {
		if x == 0 {
			break
		}
		out = append(out, graph.OpID(x-1))
	}
	return out
}
