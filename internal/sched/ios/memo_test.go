package ios_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/units"
)

// prices records the bits of the first price a solve obtained for each
// member set, keyed by the sorted members padded with -1. No case probes
// a stage of more than 16 members.
type prices map[[16]graph.OpID]uint64

func (p prices) note(ops []graph.OpID, x units.Millis) units.Millis {
	var k [16]graph.OpID
	for i := range k {
		k[i] = -1
	}
	copy(k[:], ops)
	slices.Sort(k[:len(ops)])
	if _, ok := p[k]; !ok {
		p[k] = math.Float64bits(float64(x))
	}
	return x
}

// seenTable is a profiling table that records the prices it returns.
// Embedding the table keeps it a cost.MemoModel.
type seenTable struct {
	*profile.CostTable
	seen prices
}

func (s seenTable) StageTime(ops []graph.OpID) units.Millis {
	return s.seen.note(ops, s.CostTable.StageTime(ops))
}

func (s seenTable) PriceStage(ops []graph.OpID) units.Millis {
	return s.seen.note(ops, s.CostTable.PriceStage(ops))
}

// hiddenTable forwards to a profiling table but hides its
// cost.MemoModel methods, so the DP calls StageTime for every candidate
// stage. It records the prices it returns.
type hiddenTable struct {
	t    *profile.CostTable
	seen prices
}

func (h hiddenTable) OpTime(v graph.OpID) units.Millis      { return h.t.OpTime(v) }
func (h hiddenTable) CommTime(u, v graph.OpID) units.Millis { return h.t.CommTime(u, v) }
func (h hiddenTable) StageTime(ops []graph.OpID) units.Millis {
	return h.seen.note(ops, h.t.StageTime(ops))
}

// hiosLP probes m as HIOS-LP does on two GPUs: the LP mapping pass, then
// the sliding window, whose evaluator prices fused stages with their
// members in ID order.
func hiosLP(g *graph.Graph, m cost.Model) error {
	res, err := lp.Schedule(g, m, lp.Options{GPUs: 2})
	if err != nil {
		return err
	}
	_, err = window.Parallelize(g, m, res.Schedule, window.DefaultSize)
	return err
}

// TestStageMemoMatchesUnmemoized solves each graph behind a profiling
// table and behind an identical table hidden from the per-block stage
// memo: schedules, latency bits, the price the solve saw for each member
// set, probe counts, simulated profiler time and the exported
// measurements must all agree. The wide case's MaxStage (10) is above
// cost.MemoWidth, so the per-block memo is off there: it compares the
// memo-off path of a cost.MemoModel, every stage priced through
// StageTime, with the hidden-table path, and checks that stages wider
// than the memo were probed.
// The warm case solves on tables HIOS-LP has probed first, whose stages
// of three or more members may have been priced in another member
// order; the twice case solves twice on one table; and the frozen case
// profiles through a recorded snapshot, whose miss count must not move.
func TestStageMemoMatchesUnmemoized(t *testing.T) {
	cases := []struct {
		name   string
		ops    int
		layers int
		seeds  int
		opt    ios.Options
		wide   bool
		warm   bool // HIOS-LP probes both tables before the solve
		solves int  // IOS solves on each table; 0 means 1
		frozen bool // the tables wrap a snapshot of HIOS-LP's probes
	}{
		{name: "exact", ops: 30, layers: 6, seeds: 6},
		{name: "beam", ops: 200, layers: 14, seeds: 2, opt: ios.Options{Beam: 4}},
		{name: "wide", ops: 40, layers: 3, seeds: 2, opt: ios.Options{MaxStage: 10, PruneWindow: 12, Beam: 4}, wide: true},
		{name: "warm", ops: 60, layers: 6, seeds: 4, warm: true},
		{name: "twice", ops: 60, layers: 6, seeds: 2, solves: 2},
		{name: "frozen", ops: 40, layers: 5, seeds: 2, frozen: true},
	}
	for _, tc := range cases {
		for seed := 1; seed <= tc.seeds; seed++ {
			cfg := randdag.Paper()
			cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = tc.ops, tc.layers, 2*tc.ops, int64(seed)
			g := randdag.MustGenerate(cfg)
			var inner cost.Model = cost.FromGraph(g, cost.DefaultContention())
			plainInner := inner
			var frozen, plainFrozen *profile.FrozenModel
			if tc.frozen {
				frozen, plainFrozen = snapshotOf(t, g, inner), snapshotOf(t, g, inner)
				inner, plainInner = frozen, plainFrozen
			}
			memo := seenTable{profile.NewTable(inner, 0, 0), prices{}}
			plain := hiddenTable{profile.NewTable(plainInner, 0, 0), prices{}}
			if _, ok := cost.Model(plain).(cost.MemoModel); ok {
				t.Fatal("hiddenTable must not satisfy cost.MemoModel")
			}
			if tc.warm {
				if err := hiosLP(g, memo); err != nil {
					t.Fatal(err)
				}
				if err := hiosLP(g, plain); err != nil {
					t.Fatal(err)
				}
			}
			for solve := 1; solve <= max(tc.solves, 1); solve++ {
				at := fmt.Sprintf("%s seed %d solve %d", tc.name, seed, solve)
				clear(memo.seen)
				clear(plain.seen)
				got, err := ios.Schedule(g, memo, tc.opt)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want, err := ios.Schedule(g, plain, tc.opt)
				if err != nil {
					t.Fatalf("%s hidden: %v", at, err)
				}
				gs := fmt.Sprint(got.Schedule.GPUs[0].Stages)
				if ws := fmt.Sprint(want.Schedule.GPUs[0].Stages); gs != ws {
					t.Errorf("%s: schedule %s, unmemoized %s", at, gs, ws)
				}
				if math.Float64bits(float64(got.Latency)) != math.Float64bits(float64(want.Latency)) {
					t.Errorf("%s: latency %v, unmemoized %v", at, got.Latency, want.Latency)
				}
				if !maps.Equal(memo.seen, plain.seen) {
					t.Errorf("%s: the solve saw other prices than the unmemoized one", at)
				}
				if gst, wst := memo.Stats(), plain.t.Stats(); gst != wst { //lint:floatexact SimulatedMs must be bit-identical
					t.Errorf("%s: stats %+v, unmemoized %+v", at, gst, wst)
				}
				gsnap, err := memo.Export("")
				if err != nil {
					t.Fatal(err)
				}
				wsnap, err := plain.t.Export("")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gsnap, wsnap) {
					t.Errorf("%s: exported measurements differ", at)
				}
				if tc.wide && widest(t, gsnap) <= ios.StageMemoWidth {
					t.Errorf("%s: no stage wider than %d was probed", at, ios.StageMemoWidth)
				}
				if tc.frozen {
					if frozen.Misses() != plainFrozen.Misses() {
						t.Errorf("%s: frozen misses %d, unmemoized %d", at, frozen.Misses(), plainFrozen.Misses())
					}
					if frozen.Misses() == 0 {
						t.Errorf("%s: the snapshot covers every probe; no miss was counted", at)
					}
				}
			}
		}
	}
}

// snapshotOf profiles g's HIOS-LP schedule on m and loads the recorded
// measurements as a frozen model.
func snapshotOf(t *testing.T, g *graph.Graph, m cost.Model) *profile.FrozenModel {
	t.Helper()
	tab := profile.NewTable(m, 0, 0)
	if err := hiosLP(g, tab); err != nil {
		t.Fatal(err)
	}
	data, err := tab.Export("")
	if err != nil {
		t.Fatal(err)
	}
	fm, err := profile.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// widest returns the member count of the widest stage in a snapshot.
func widest(t *testing.T, data []byte) int {
	t.Helper()
	var snap profile.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, st := range snap.Stages {
		n = max(n, len(st.Ops))
	}
	return n
}
