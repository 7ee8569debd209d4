package profile

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/shus-lab/hios/internal/cost"
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

// Export serializes every measurement the table has performed so far:
// ops by ID, comms by endpoints and stages by their sorted member lists,
// whether the maps or a segment holds them.
func (t *CostTable) Export(model string) ([]byte, error) {
	t.mu.RLock()
	nOps, nComms := len(t.ops)+t.segOps, len(t.comms)
	nStages := len(t.stages.vals) + t.segStages
	t.mu.RUnlock()
	snap := Snapshot{
		Model:   model,
		Warmup:  t.warmup,
		Repeats: t.repeats,
		Ops:     make(map[graph.OpID]units.Millis, nOps),
	}
	if nComms > 0 { // an empty list stays null in the JSON
		snap.Comms = make([]CommEntry, 0, nComms)
	}
	type stageVal struct {
		k stageKey
		x units.Millis
	}
	// Sized before locking; an empty list stays null in the JSON.
	stages := make([]stageVal, 0, nStages)
	if nStages > 0 {
		snap.Stages = make([]StageEntry, 0, nStages)
	}
	t.mu.RLock()
	for v, x := range t.ops {
		snap.Ops[v] = x
	}
	for k, x := range t.comms {
		snap.Comms = append(snap.Comms, CommEntry{From: k[0], To: k[1], Ms: x})
	}
	for k, x := range t.stages.vals {
		stages = append(stages, stageVal{k, x})
	}
	// Interned spills and segments are never rewritten, so the slice
	// headers read under the lock decode every key collected above and
	// list every segment committed before it.
	spilled := stageMap{spills: t.stages.spills}
	segs := t.segs
	t.mu.RUnlock()
	for _, sg := range segs {
		for _, p := range sg.probes {
			if p.Members[1] == 0 {
				snap.Ops[sg.ops[p.Members[0]-1]] = p.Time
				continue
			}
			stage := make([]graph.OpID, 0, cost.MemoWidth)
			for _, x := range p.Members {
				if x == 0 {
					break
				}
				stage = append(stage, sg.ops[x-1])
			}
			slices.Sort(stage)
			snap.Stages = append(snap.Stages, StageEntry{Ops: stage, Ms: p.Time})
		}
	}
	slices.SortFunc(snap.Comms, func(a, b CommEntry) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for _, e := range stages {
		snap.Stages = append(snap.Stages, StageEntry{Ops: spilled.members(e.k), Ms: e.x})
	}
	slices.SortFunc(snap.Stages, func(a, b StageEntry) int { return slices.Compare(a.Ops, b.Ops) })
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
		stages: newStageMap(),
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
		if err := record(fm.stages.vals, fm.stages.key(st.Ops), st.Ms); err != nil {
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
	stages stageMap
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
// sum of its members' solo times in ascending ID order — the safe upper
// bound that never makes an unprofiled fusion look attractive.
func (f *FrozenModel) StageTime(ops []graph.OpID) units.Millis {
	if len(ops) == 1 {
		return f.OpTime(ops[0])
	}
	if t, ok := f.stages.lookup(ops); ok {
		return t
	}
	f.misses++
	var sum units.Millis
	for _, v := range sortInto(make([]graph.OpID, len(ops)), ops) {
		sum += f.OpTime(v)
	}
	return sum
}

// Misses returns how many lookups fell outside the recorded profile.
func (f *FrozenModel) Misses() int { return f.misses }
