package profile

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/units"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 30, 5, 60, 8
	g := randdag.MustGenerate(cfg)
	inner := cost.FromGraph(g, cost.DefaultContention())
	tab := NewTable(inner, 1, 1)

	// Profile through a real scheduling run.
	live := hiosLP(t, g, tab, 2)

	data, err := tab.Export("random-30")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := Import(data)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Model != "random-30" {
		t.Fatalf("model name lost: %q", frozen.Model)
	}

	// Re-scheduling against the frozen profile must reproduce the run
	// exactly: same schedule, same latency, zero misses.
	replay := hiosLP(t, g, frozen, 2)
	if replay.Latency != live.Latency {
		t.Fatalf("frozen replay latency %g != live %g", replay.Latency, live.Latency)
	}
	if replay.Schedule.String() != live.Schedule.String() {
		t.Fatal("frozen replay produced a different schedule")
	}
	if frozen.Misses() != 0 {
		t.Fatalf("replay missed %d probes", frozen.Misses())
	}
}

func TestFrozenModelMissAccounting(t *testing.T) {
	frozen, err := Import([]byte(`{"model":"empty"}`))
	if err != nil {
		t.Fatal(err)
	}
	if frozen.OpTime(0) != 0 || frozen.CommTime(0, 1) != 0 {
		t.Fatal("missing probes should price at 0")
	}
	// An unmeasured pair prices as the serial sum of (also missing) ops.
	if frozen.StageTime([]graph.OpID{0, 1}) != 0 {
		t.Fatal("missing stage should serialize missing ops")
	}
	if frozen.Misses() == 0 {
		t.Fatal("misses not counted")
	}
}

func TestFrozenStageFallbackSerializes(t *testing.T) {
	snap := []byte(`{"ops":{"0":2,"1":3}}`)
	frozen, err := Import(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := frozen.StageTime([]graph.OpID{0, 1}); got != 5 {
		t.Fatalf("fallback stage = %g, want serialized 5", got)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := Import([]byte("{")); err == nil {
		t.Fatal("accepted malformed snapshot")
	}
}

func TestStageSigRoundTrip(t *testing.T) {
	cases := [][]graph.OpID{
		{7, 300, 70000, 2},                         // inline path
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 10, 13}, // spills past cost.MemoWidth
		{1 << 40, 3, 1 << 33},                      // IDs above 32 bits spill too
		{-4, 2},                                    // so do negative IDs
	}
	sm := newStageMap()
	for _, ops := range cases {
		got := sm.members(sm.key(ops))
		want := append([]graph.OpID(nil), ops...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("members(%v) = %v", ops, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("members(%v) = %v, want %v", ops, got, want)
			}
		}
	}
}

func TestStageSigOrderInsensitive(t *testing.T) {
	sm := newStageMap()
	if sm.key([]graph.OpID{5, 1, 9, 3}) != sm.key([]graph.OpID{9, 3, 5, 1}) {
		t.Fatal("stageKey depends on member order")
	}
	wideA := sm.key([]graph.OpID{12, 11, 10, 9, 8, 7, 6, 5, 4, 3})
	wideB := sm.key([]graph.OpID{3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if wideA != wideB {
		t.Fatal("wide stageKey depends on member order")
	}
	if sm.key([]graph.OpID{3, 1 << 33}) == sm.key([]graph.OpID{1 << 33, 4}) {
		t.Fatal("two spilled stages share a key")
	}
}

// TestImportRejectsBadMeasurements pins Import's validation: a negative
// time, two different times for one probe (stage members in any order
// name one probe) and a stage of fewer than two operators are errors; a
// bit-identical repeat is not.
func TestImportRejectsBadMeasurements(t *testing.T) {
	cases := []struct {
		name, snap, err string
	}{
		{"negative op", `{"ops":{"0":-5}}`, "profile: op 0: negative time -5 ms"},
		{"negative comm", `{"comms":[{"from":0,"to":1,"ms":-1},{"from":0,"to":1,"ms":3}]}`,
			"profile: comm 0->1: negative time -1 ms"},
		{"conflicting comms", `{"comms":[{"from":0,"to":1,"ms":1},{"from":0,"to":1,"ms":3}]}`,
			"profile: comm 0->1: recorded twice, at 1 and 3 ms"},
		{"negative stage", `{"stages":[{"ops":[0,1],"ms":-2}]}`, "profile: stage [0 1]: negative time -2 ms"},
		{"conflicting stages", `{"stages":[{"ops":[0,1],"ms":1},{"ops":[1,0],"ms":2}]}`,
			"profile: stage [1 0]: recorded twice, at 1 and 2 ms"},
		{"singleton stage", `{"stages":[{"ops":[3],"ms":7}]}`, "profile: stage [3]: fewer than two operators"},
		{"empty stage", `{"stages":[{"ops":[],"ms":7}]}`, "profile: stage []: fewer than two operators"},
		{"null ops", `{"ops":null}`, ""},
		{"repeated comm", `{"comms":[{"from":0,"to":1,"ms":3},{"from":0,"to":1,"ms":3}]}`, ""},
		{"repeated stage", `{"stages":[{"ops":[0,1],"ms":1},{"ops":[1,0],"ms":1}]}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm, err := Import([]byte(tc.snap))
			if tc.err == "" {
				if err != nil {
					t.Fatalf("Import(%s): %v", tc.snap, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Import(%s) accepted the snapshot; OpTime(0)=%v CommTime(0,1)=%v", tc.snap, fm.OpTime(0), fm.CommTime(0, 1))
			}
			if err.Error() != tc.err {
				t.Fatalf("Import(%s) error %q, want %q", tc.snap, err, tc.err)
			}
		})
	}
}

// unitModel prices every probe at 1 ms, for any operator ID.
type unitModel struct{}

func (unitModel) OpTime(graph.OpID) units.Millis        { return 1 }
func (unitModel) CommTime(_, _ graph.OpID) units.Millis { return 1 }
func (unitModel) StageTime([]graph.OpID) units.Millis   { return 1 }

// TestStageSigCompareMatchesMembers pins the order Export lists stages
// in: by sorted member list, shorter first on a shared prefix, across
// the inline and spill encodings.
func TestStageSigCompareMatchesMembers(t *testing.T) {
	sets := [][]graph.OpID{
		{0, 1}, {1, 0, 2}, {0, 2}, {1, 2},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 9},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0, 1, 2, 3, 4, 5, 6, 8},
		{1 << 40, 3}, {3, 1 << 33},
	}
	tab := NewTable(unitModel{}, 1, 1)
	for i := len(sets) - 1; i >= 0; i-- {
		tab.StageTime(sets[i])
	}
	data, err := tab.Export("")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	var want [][]graph.OpID
	for _, ops := range sets {
		want = append(want, slices.Sorted(slices.Values(ops)))
	}
	slices.SortFunc(want, slices.Compare)
	if len(snap.Stages) != len(want) {
		t.Fatalf("exported %d stages, want %d", len(snap.Stages), len(want))
	}
	for i, st := range snap.Stages {
		if !slices.Equal(st.Ops, want[i]) {
			t.Errorf("stage %d = %v, want %v", i, st.Ops, want[i])
		}
	}
}

// FuzzImport hardens the profile loader: arbitrary bytes must either be
// rejected, or load a model in which every probe the snapshot records
// returns its recorded time bit for bit, without a miss.
func FuzzImport(f *testing.F) {
	f.Add([]byte(`{"model":"m","ops":{"0":2,"1":3},"comms":[{"from":0,"to":1,"ms":0.5}],"stages":[{"ops":[1,0],"ms":4}]}`))
	f.Add([]byte(`{"ops":{"0":-5}}`))
	f.Add([]byte(`{"stages":[{"ops":[9,8,7,6,5,4,3,2,1,0],"ms":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fm, err := Import(data)
		if err != nil {
			return
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("Import accepted a snapshot json rejects: %v", err)
		}
		same := func(got, want units.Millis) bool {
			return math.Float64bits(float64(got)) == math.Float64bits(float64(want))
		}
		for v, ms := range snap.Ops {
			if got := fm.OpTime(v); !same(got, ms) {
				t.Fatalf("op %d: loaded %v, recorded %v", v, got, ms)
			}
		}
		for _, c := range snap.Comms {
			if got := fm.CommTime(c.From, c.To); !same(got, c.Ms) {
				t.Fatalf("comm %d->%d: loaded %v, recorded %v", c.From, c.To, got, c.Ms)
			}
		}
		for _, st := range snap.Stages {
			if got := fm.StageTime(st.Ops); !same(got, st.Ms) {
				t.Fatalf("stage %v: loaded %v, recorded %v", st.Ops, got, st.Ms)
			}
		}
		if fm.Misses() != 0 {
			t.Fatalf("recorded probes missed %d times", fm.Misses())
		}
	})
}
