package ios

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/profile"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/units"
)

// hiddenTable forwards to a profiling table but drops its cost.MemoModel
// marker, so the DP calls StageTime for every candidate stage.
type hiddenTable struct{ t *profile.CostTable }

func (h hiddenTable) OpTime(v graph.OpID) units.Millis        { return h.t.OpTime(v) }
func (h hiddenTable) CommTime(u, v graph.OpID) units.Millis   { return h.t.CommTime(u, v) }
func (h hiddenTable) StageTime(ops []graph.OpID) units.Millis { return h.t.StageTime(ops) }

// TestStageMemoMatchesUnmemoized solves each graph behind a profiling
// table and behind an identical table hidden from the per-block stage
// memo: schedules, latency bits, probe counts, simulated profiler time
// and the exported measurements must all agree. The wide case's stages
// outgrow the memo key, so its unmemoized fallback runs too.
func TestStageMemoMatchesUnmemoized(t *testing.T) {
	cases := []struct {
		name   string
		ops    int
		layers int
		seeds  int
		opt    Options
		wide   bool
	}{
		{name: "exact", ops: 30, layers: 6, seeds: 6},
		{name: "beam", ops: 200, layers: 14, seeds: 2, opt: Options{Beam: 4}},
		{name: "wide", ops: 40, layers: 3, seeds: 2, opt: Options{MaxStage: 10, PruneWindow: 12, Beam: 4}, wide: true},
	}
	for _, tc := range cases {
		for seed := 1; seed <= tc.seeds; seed++ {
			cfg := randdag.Paper()
			cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = tc.ops, tc.layers, 2*tc.ops, int64(seed)
			g := randdag.MustGenerate(cfg)
			inner := cost.FromGraph(g, cost.DefaultContention())
			memo := profile.NewTable(inner, 0, 0)
			plain := profile.NewTable(inner, 0, 0)
			if _, ok := cost.Model(hiddenTable{plain}).(cost.MemoModel); ok {
				t.Fatal("hiddenTable must not satisfy cost.MemoModel")
			}
			got, err := Schedule(g, memo, tc.opt)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			want, err := Schedule(g, hiddenTable{plain}, tc.opt)
			if err != nil {
				t.Fatalf("%s seed %d hidden: %v", tc.name, seed, err)
			}
			gs := fmt.Sprint(got.Schedule.GPUs[0].Stages)
			if ws := fmt.Sprint(want.Schedule.GPUs[0].Stages); gs != ws {
				t.Errorf("%s seed %d: schedule %s, unmemoized %s", tc.name, seed, gs, ws)
			}
			if math.Float64bits(float64(got.Latency)) != math.Float64bits(float64(want.Latency)) {
				t.Errorf("%s seed %d: latency %v, unmemoized %v", tc.name, seed, got.Latency, want.Latency)
			}
			if gst, wst := memo.Stats(), plain.Stats(); gst != wst { //lint:floatexact SimulatedMs must be bit-identical
				t.Errorf("%s seed %d: stats %+v, unmemoized %+v", tc.name, seed, gst, wst)
			}
			gsnap, err := memo.Export("")
			if err != nil {
				t.Fatal(err)
			}
			wsnap, err := plain.Export("")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gsnap, wsnap) {
				t.Errorf("%s seed %d: exported measurements differ", tc.name, seed)
			}
			if tc.wide && widest(t, gsnap) <= stageMemoWidth {
				t.Errorf("%s seed %d: no stage wider than %d was probed", tc.name, seed, stageMemoWidth)
			}
		}
	}
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
