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
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/memo"
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
// Each probe kind is a memo.Map: lookups take a read lock only, so
// concurrent sweeps sharing one table scale with cores once the working
// set is memoized, and a miss inserts under the write lock with a
// re-check, which also keeps the probe counts exact. The maps carry no
// hit counters, so a memoized probe costs one read-locked lookup.
// Concurrent use requires the wrapped model's own lookups to be safe for
// concurrent readers (every model in internal/cost is: they are pure
// functions over immutable graph data).
//
// Determinism under concurrency: memoized values and probe counts are
// exact regardless of interleaving. Only SimulatedMs accumulates in
// probe-completion order, so a table probed from several goroutines may report
// last-ulp differences across runs; probe it from one goroutine (as
// Fig. 14 does) when the exact float matters.
type CostTable struct {
	inner   cost.Model
	warmup  int
	repeats int

	ops    *memo.Map[graph.OpID, units.Millis]
	stages *memo.Map[stageSig, units.Millis]
	comms  *memo.Map[[2]graph.OpID, units.Millis]

	mu    sync.Mutex // guards simMs
	simMs units.Millis
}

var _ cost.Model = (*CostTable)(nil)

// NewTable wraps m with measurement accounting. Non-positive warmup or
// repeats select the defaults.
func NewTable(m cost.Model, warmup, repeats int) *CostTable {
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	if repeats <= 0 {
		repeats = DefaultRepeats
	}
	return &CostTable{
		inner:   m,
		warmup:  warmup,
		repeats: repeats,
		ops:     memo.New[graph.OpID, units.Millis](),
		stages:  memo.New[stageSig, units.Millis](),
		comms:   memo.New[[2]graph.OpID, units.Millis](),
	}
}

// measured returns the value a probe's Put left in the table, charging
// the simulated profiler time only when this call stored it: a racer
// that lost measured nothing new.
func (t *CostTable) measured(x units.Millis, stored bool) units.Millis {
	if stored {
		t.mu.Lock()
		t.simMs += x.Scale(float64(t.warmup + t.repeats))
		t.mu.Unlock()
	}
	return x
}

// OpTime implements cost.Model.
func (t *CostTable) OpTime(v graph.OpID) units.Millis {
	if x, ok := t.ops.Get(&v); ok {
		return x
	}
	return t.measured(t.ops.Put(v, t.inner.OpTime(v)))
}

// CommTime implements cost.Model.
func (t *CostTable) CommTime(u, v graph.OpID) units.Millis {
	key := [2]graph.OpID{u, v}
	if x, ok := t.comms.Get(&key); ok {
		return x
	}
	return t.measured(t.comms.Put(key, t.inner.CommTime(u, v)))
}

// StageTime implements cost.Model. Probes are keyed by the sorted member
// set, as a profiler measures each distinct concurrent group once.
func (t *CostTable) StageTime(ops []graph.OpID) units.Millis {
	if len(ops) == 1 {
		return t.OpTime(ops[0])
	}
	key := makeStageSig(ops)
	if x, ok := t.stages.Get(&key); ok {
		return x
	}
	return t.measured(t.stages.Put(key, t.inner.StageTime(ops)))
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

// Stats returns the accounting snapshot.
func (t *CostTable) Stats() Stats {
	s := Stats{OpProbes: t.ops.Len(), StageProbes: t.stages.Len(), CommProbes: t.comms.Len()}
	t.mu.Lock()
	s.SimulatedMs = t.simMs
	t.mu.Unlock()
	return s
}

// stageSigInline is how many member IDs a stageSig stores inline. The IOS
// dynamic program — the hot caller — never probes stages wider than its
// MaxStage default of 8, so the inline array covers every probe the
// schedulers issue without allocating.
const stageSigInline = 8

// stageSig is a comparable key identifying a concurrent-stage probe by its
// sorted member set. Up to stageSigInline members live in the fixed array;
// wider stages (possible through direct API use only) spill the remainder
// into an encoded string. Building a key for an inline-sized stage
// performs zero heap allocations, unlike the byte-string key it replaced —
// the IOS DP issues millions of probes per block, so the key build was the
// table's dominant allocation site (see BenchmarkStageSig).
type stageSig struct {
	n    int
	ids  [stageSigInline]graph.OpID
	rest string
}

// makeStageSig builds the canonical (sorted-member) key for ops.
//
// The spill path sorts the member values on a stack array and encodes
// the overflow directly as big-endian 8-byte chunks (OpIDs are
// non-negative, so the encoding's lexicographic order equals numeric
// order): two allocations — the chunk buffer and the spill string —
// instead of the five of the heap-sorted slice + byte-buffer + string
// round-trip it replaces (BenchmarkStageSigWide).
func makeStageSig(ops []graph.OpID) stageSig {
	k := stageSig{n: len(ops)}
	if len(ops) <= stageSigInline {
		copy(k.ids[:], ops)
		ids := k.ids[:len(ops)]
		// Insertion sort on the stack array: stages are tiny and nearly
		// sorted already (schedulers keep stage members ID-ordered).
		for a := 1; a < len(ids); a++ {
			for b := a; b > 0 && ids[b] < ids[b-1]; b-- {
				ids[b], ids[b-1] = ids[b-1], ids[b]
			}
		}
		return k
	}
	// Sort the member values on a stack array (insertion sort for the
	// realistic widths; the stdlib-sort fallback below keeps its own
	// heap slice so this array never escapes), then encode the sorted
	// tail directly into the spill buffer.
	if len(ops) <= 64 {
		var arr [64]uint64
		vals := arr[:len(ops)]
		for i, id := range ops {
			vals[i] = uint64(id)
		}
		for a := 1; a < len(vals); a++ {
			for b := a; b > 0 && vals[b] < vals[b-1]; b-- {
				vals[b], vals[b-1] = vals[b-1], vals[b]
			}
		}
		k.fillSpill(vals)
		return k
	}
	vals := make([]uint64, len(ops))
	for i, id := range ops {
		vals[i] = uint64(id)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	k.fillSpill(vals)
	return k
}

// fillSpill distributes sorted member values into the inline array and
// the encoded spill string.
func (k *stageSig) fillSpill(vals []uint64) {
	for i := 0; i < stageSigInline; i++ {
		k.ids[i] = graph.OpID(vals[i])
	}
	buf := make([]byte, 8*(len(vals)-stageSigInline))
	for i, v := range vals[stageSigInline:] {
		putChunk(buf[8*i:8*i+8], v)
	}
	k.rest = string(buf)
}

func putChunk(dst []byte, v uint64) {
	dst[0] = byte(v >> 56)
	dst[1] = byte(v >> 48)
	dst[2] = byte(v >> 40)
	dst[3] = byte(v >> 32)
	dst[4] = byte(v >> 24)
	dst[5] = byte(v >> 16)
	dst[6] = byte(v >> 8)
	dst[7] = byte(v)
}

// compare orders keys by their sorted member lists, lexicographically
// with the shorter list first on a shared prefix. The spill string's
// big-endian chunks compare bytewise in member order, so the inline
// prefix, then the spill, then the width decide.
func (k stageSig) compare(o stageSig) int {
	n := min(k.n, o.n, stageSigInline)
	if c := slices.Compare(k.ids[:n], o.ids[:n]); c != 0 {
		return c
	}
	if c := strings.Compare(k.rest, o.rest); c != 0 {
		return c
	}
	return cmp.Compare(k.n, o.n)
}

// members reconstructs the sorted member set the key encodes.
func (k stageSig) members() []graph.OpID {
	out := make([]graph.OpID, 0, k.n)
	inline := k.n
	if inline > stageSigInline {
		inline = stageSigInline
	}
	out = append(out, k.ids[:inline]...)
	for i := 0; i+7 < len(k.rest); i += 8 {
		var id uint64
		for j := 0; j < 8; j++ {
			id = id<<8 | uint64(k.rest[i+j])
		}
		out = append(out, graph.OpID(id))
	}
	return out
}
