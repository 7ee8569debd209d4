package profile

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// The paper's scheduler profiles a model once and reuses the measurements
// across scheduling runs; this file provides the corresponding artifact:
// a JSON snapshot of every memoized probe, loadable as a standalone cost
// model that never re-measures.

// Snapshot is the serialized form of a CostTable's measurements.
type Snapshot struct {
	// Model optionally names the profiled network.
	Model string `json:"model"`
	// Warmup and Repeats record the measurement discipline.
	Warmup  int `json:"warmup"`
	Repeats int `json:"repeats"`
	// Ops maps operator ID -> t(v) in milliseconds.
	Ops map[graph.OpID]units.Millis `json:"ops"`
	// Comms lists measured transfers.
	Comms []CommEntry `json:"comms"`
	// Stages lists measured concurrent groups.
	Stages []StageEntry `json:"stages"`
}

// CommEntry is one measured transfer t(u, v).
type CommEntry struct {
	From graph.OpID   `json:"from"`
	To   graph.OpID   `json:"to"`
	Ms   units.Millis `json:"ms"`
}

// StageEntry is one measured concurrent group t(S).
type StageEntry struct {
	Ops []graph.OpID `json:"ops"`
	Ms  units.Millis `json:"ms"`
}

// Export serializes every measurement the table has performed so far.
func (t *CostTable) Export(model string) ([]byte, error) {
	snap := Snapshot{
		Model:   model,
		Warmup:  t.warmup,
		Repeats: t.repeats,
		Ops:     make(map[graph.OpID]units.Millis, t.ops.Len()),
	}
	for _, e := range t.ops.Sorted(cmp.Compare) {
		snap.Ops[e.Key] = e.Val
	}
	for _, e := range t.comms.Sorted(func(a, b [2]graph.OpID) int { return slices.Compare(a[:], b[:]) }) {
		snap.Comms = append(snap.Comms, CommEntry{From: e.Key[0], To: e.Key[1], Ms: e.Val})
	}
	for _, e := range t.stages.Sorted(stageSig.compare) {
		snap.Stages = append(snap.Stages, StageEntry{Ops: e.Key.members(), Ms: e.Val})
	}
	return json.MarshalIndent(snap, "", " ")
}

// Import parses a Snapshot into a frozen cost model: lookups hit only the
// recorded measurements, and a probe the profile never performed returns
// an error through the panic-free Missing reporting of FrozenModel. A
// snapshot is rejected when it records a negative time, two different
// times for one probe (a stage's members in any order name one probe),
// or a stage of fewer than two operators, which no table records.
func Import(data []byte) (*FrozenModel, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("profile: parsing snapshot: %w", err)
	}
	fm := &FrozenModel{
		Model:  snap.Model,
		ops:    make(map[graph.OpID]units.Millis, len(snap.Ops)),
		comms:  make(map[[2]graph.OpID]units.Millis, len(snap.Comms)),
		stages: make(map[stageSig]units.Millis, len(snap.Stages)),
	}
	for _, v := range slices.Sorted(maps.Keys(snap.Ops)) { // the first bad op reported is the lowest
		if err := record(fm.ops, v, snap.Ops[v]); err != nil {
			return nil, fmt.Errorf("profile: op %d: %w", v, err)
		}
	}
	for _, c := range snap.Comms {
		if err := record(fm.comms, [2]graph.OpID{c.From, c.To}, c.Ms); err != nil {
			return nil, fmt.Errorf("profile: comm %d->%d: %w", c.From, c.To, err)
		}
	}
	for _, st := range snap.Stages {
		if len(st.Ops) < 2 {
			// StageTime answers a one-operator stage from the op table.
			return nil, fmt.Errorf("profile: stage %v: fewer than two operators", st.Ops)
		}
		if err := record(fm.stages, makeStageSig(st.Ops), st.Ms); err != nil {
			return nil, fmt.Errorf("profile: stage %v: %w", st.Ops, err)
		}
	}
	return fm, nil
}

// record stores one imported measurement, rejecting a negative time or a
// second, different time for the same probe. A bit-identical repeat
// records nothing new and is accepted.
func record[K comparable](m map[K]units.Millis, k K, ms units.Millis) error {
	if ms < 0 {
		return fmt.Errorf("negative time %v ms", float64(ms))
	}
	if old, ok := m[k]; ok && math.Float64bits(float64(old)) != math.Float64bits(float64(ms)) {
		return fmt.Errorf("recorded twice, at %v and %v ms", float64(old), float64(ms))
	}
	m[k] = ms
	return nil
}

// FrozenModel is a cost model backed purely by recorded measurements.
// Missing probes do not invent values: OpTime and StageTime fall back to
// pessimistic serialization of known per-op times, CommTime to zero, and
// every miss is counted so callers can detect an incomplete profile.
type FrozenModel struct {
	Model  string
	ops    map[graph.OpID]units.Millis
	comms  map[[2]graph.OpID]units.Millis
	stages map[stageSig]units.Millis
	misses int
}

// OpTime implements cost.Model.
func (f *FrozenModel) OpTime(v graph.OpID) units.Millis {
	if t, ok := f.ops[v]; ok {
		return t
	}
	f.misses++
	return 0
}

// CommTime implements cost.Model.
func (f *FrozenModel) CommTime(u, v graph.OpID) units.Millis {
	if t, ok := f.comms[[2]graph.OpID{u, v}]; ok {
		return t
	}
	f.misses++
	return 0
}

// StageTime implements cost.Model. An unmeasured group is priced as the
// sum of its members' solo times — the safe upper bound that never makes
// an unprofiled fusion look attractive.
func (f *FrozenModel) StageTime(ops []graph.OpID) units.Millis {
	if len(ops) == 1 {
		return f.OpTime(ops[0])
	}
	if t, ok := f.stages[makeStageSig(ops)]; ok {
		return t
	}
	f.misses++
	var sum units.Millis
	for _, v := range ops {
		sum += f.OpTime(v)
	}
	return sum
}

// Misses returns how many lookups fell outside the recorded profile.
func (f *FrozenModel) Misses() int { return f.misses }
