package profile

import (
	"sync"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/units"
)

// hiosLP runs HIOS-LP as experiments.Run composes it, the LP mapping pass
// and then the sliding-window pass, so a profile sees both passes' probes.
func hiosLP(t *testing.T, g *graph.Graph, m cost.Model, gpus int) sched.Result {
	t.Helper()
	inter, err := lp.Schedule(g, m, lp.Options{GPUs: gpus})
	if err != nil {
		t.Fatal(err)
	}
	res, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func build(t *testing.T) (*graph.Graph, cost.Model) {
	t.Helper()
	g := graph.New(3, 2)
	a := g.AddOp(graph.Op{Name: "a", Time: 2, Util: 0.3})
	b := g.AddOp(graph.Op{Name: "b", Time: 3, Util: 0.3})
	c := g.AddOp(graph.Op{Name: "c", Time: 1, Util: 0.3})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(a, c, 0.25)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func TestTransparentForwarding(t *testing.T) {
	g, m := build(t)
	tab := NewTable(m, 1, 1)
	if tab.OpTime(0) != m.OpTime(0) || tab.CommTime(0, 1) != m.CommTime(0, 1) {
		t.Fatal("CostTable changed values")
	}
	want := m.StageTime([]graph.OpID{1, 2})
	if tab.StageTime([]graph.OpID{1, 2}) != want {
		t.Fatal("StageTime changed values")
	}
	_ = g
}

func TestMemoizationCountsDistinctProbes(t *testing.T) {
	_, m := build(t)
	tab := NewTable(m, 1, 1)
	for i := 0; i < 5; i++ {
		tab.OpTime(0)
		tab.OpTime(1)
		tab.CommTime(0, 1)
		tab.StageTime([]graph.OpID{1, 2})
		tab.StageTime([]graph.OpID{2, 1}) // same set, same probe
	}
	st := tab.Stats()
	if st.OpProbes != 2 || st.CommProbes != 1 || st.StageProbes != 1 {
		t.Fatalf("probe counts = %+v", st)
	}
	if st.Probes() != 4 {
		t.Fatalf("total probes = %d, want 4", st.Probes())
	}
}

func TestSingletonStageCountsAsOpProbe(t *testing.T) {
	_, m := build(t)
	tab := NewTable(m, 1, 1)
	tab.StageTime([]graph.OpID{1})
	st := tab.Stats()
	if st.OpProbes != 1 || st.StageProbes != 0 {
		t.Fatalf("singleton stage accounting wrong: %+v", st)
	}
}

func TestSimulatedCostAccumulates(t *testing.T) {
	_, m := build(t)
	tab := NewTable(m, 2, 3) // 5 executions per probe
	tab.OpTime(0)            // t=2 -> 10 ms
	tab.OpTime(0)            // memoized, free
	tab.CommTime(0, 1)       // t=0.5 -> 2.5 ms
	st := tab.Stats()
	if diff := st.SimulatedMs - 12.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("simulated cost = %g, want 12.5", st.SimulatedMs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	_, m := build(t)
	tab := NewTable(m, 0, 0)
	tab.OpTime(0)
	st := tab.Stats()
	want := units.Millis(DefaultWarmup+DefaultRepeats) * 2
	if diff := st.SimulatedMs - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("simulated cost = %g, want %g", st.SimulatedMs, want)
	}
}

// TestMemoizationIsTransparentToSchedulers: wrapping a cost model in a
// CostTable must not change any scheduler's output — memoized values are
// bit-identical, so schedules and latencies are too.
func TestMemoizationIsTransparentToSchedulers(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 40, 6, 80, 3
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())

	direct := hiosLP(t, g, m, 3)
	tab := NewTable(m, 1, 1)
	profiled := hiosLP(t, g, tab, 3)
	if direct.Latency != profiled.Latency {
		t.Fatalf("profiling changed the result: %g vs %g", direct.Latency, profiled.Latency)
	}
	if direct.Schedule.String() != profiled.Schedule.String() {
		t.Fatal("profiling changed the schedule")
	}
}

func TestIOSProbesMoreStagesThanLP(t *testing.T) {
	// The Fig. 14 mechanism: the IOS dynamic program probes far more
	// distinct operator groups than HIOS's sliding window. This is a
	// coarse structural check with a wide diamond.
	g := graph.New(8, 12)
	src := g.AddOp(graph.Op{Name: "s", Time: 1, Util: 0.2})
	var mids []graph.OpID
	for i := 0; i < 6; i++ {
		v := g.AddOp(graph.Op{Time: 1, Util: 0.2})
		g.AddEdge(src, v, 0.1)
		mids = append(mids, v)
	}
	dst := g.AddOp(graph.Op{Name: "d", Time: 1, Util: 0.2})
	for _, v := range mids {
		g.AddEdge(v, dst, 0.1)
	}
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())

	tab := NewTable(m, 1, 1)
	// Simulate IOS-style enumeration: all subsets of the middle layer.
	var rec func(i int, cur []graph.OpID)
	rec = func(i int, cur []graph.OpID) {
		if len(cur) > 1 {
			tab.StageTime(cur)
		}
		for j := i; j < len(mids); j++ {
			rec(j+1, append(cur, mids[j]))
		}
	}
	rec(0, nil)
	iosProbes := tab.Stats().StageProbes

	tab2 := NewTable(m, 1, 1)
	// HIOS window-style enumeration: contiguous windows of size <= 4.
	for i := 0; i < len(mids); i++ {
		for p := 2; p <= 4 && i+p <= len(mids); p++ {
			tab2.StageTime(mids[i : i+p])
		}
	}
	lpProbes := tab2.Stats().StageProbes
	if iosProbes <= 2*lpProbes {
		t.Fatalf("IOS probes (%d) should far exceed window probes (%d)", iosProbes, lpProbes)
	}
}

// TestConcurrentProbesStayExact hammers one table from many goroutines
// and checks the accounting afterwards: probe counts must equal the
// distinct probe population (no double-counted misses despite the
// read-lock fast path), and every memoized value must match the inner
// model exactly. Meanwhile a second table, priced 1 ms per probe, takes
// a stream of new probes while Stats snapshots of it are taken: every
// snapshot must charge exactly its own probe count.
func TestConcurrentProbesStayExact(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 40, 5, 80, 5
	g := randdag.MustGenerate(cfg)
	inner := cost.FromGraph(g, cost.DefaultContention())
	tab := NewTable(inner, 1, 1)
	unit := NewTable(unitModel{}, 1, 1) // 2 ms simulated per probe

	n := g.NumOps()
	const workers, reps = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for v := 0; v < n; v++ {
					tab.OpTime(graph.OpID(v))
				}
				for v := 0; v+3 < n; v += 2 {
					tab.StageTime([]graph.OpID{graph.OpID(v), graph.OpID(v + 1), graph.OpID(v + 3)})
				}
				tab.CommTime(graph.OpID(w), graph.OpID(w+1))
				// Pairs of workers share their unit probes, so some race.
				base := graph.OpID(((w/2)*reps + rep) * n)
				for v := graph.OpID(0); v < graph.OpID(n); v++ {
					unit.OpTime(base + v)
					unit.StageTime([]graph.OpID{base + v, base + v + 1})
					unit.CommTime(base, v)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	snapshots := make(chan int)
	go func() {
		taken := 0
		for {
			select {
			case <-done:
				snapshots <- taken
				return
			default:
			}
			st := unit.Stats()
			if want := units.Millis(2 * st.Probes()); st.SimulatedMs != want { //lint:floatexact integer sums are exact
				t.Errorf("snapshot %+v charges %v ms for %d probes, want %v", st, st.SimulatedMs, st.Probes(), want)
				snapshots <- taken
				return
			}
			taken++
		}
	}()
	wg.Wait()
	close(done)
	if taken := <-snapshots; taken == 0 {
		t.Error("no Stats snapshot was taken during probing")
	}
	if got, want := unit.Stats().Probes(), 3*(workers/2)*reps*n; got != want {
		t.Fatalf("unit table probes = %d, want %d", got, want)
	}

	st := tab.Stats()
	if st.OpProbes != n {
		t.Fatalf("OpProbes = %d, want %d", st.OpProbes, n)
	}
	wantStages := 0
	for v := 0; v+3 < n; v += 2 {
		wantStages++
		ops := []graph.OpID{graph.OpID(v), graph.OpID(v + 1), graph.OpID(v + 3)}
		if got, want := tab.StageTime(ops), inner.StageTime(ops); got != want { //lint:floatexact memoized value must be bit-identical
			t.Fatalf("stage %v: %v != %v", ops, got, want)
		}
	}
	if st.StageProbes != wantStages {
		t.Fatalf("StageProbes = %d, want %d", st.StageProbes, wantStages)
	}
	if st.CommProbes != 8 {
		t.Fatalf("CommProbes = %d, want 8", st.CommProbes)
	}
}

// TestHitsAllocFree pins the memoized probe path the schedulers' inner
// loops run on: a hit of any kind builds its key and reads the table
// without allocating.
func TestHitsAllocFree(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 20, 4, 40, 3
	g := randdag.MustGenerate(cfg)
	tab := NewTable(cost.FromGraph(g, cost.DefaultContention()), 1, 1)
	ops := []graph.OpID{3, 9, 1, 7}
	tab.StageTime(ops)
	tab.OpTime(5)
	tab.CommTime(1, 2)
	allocs := testing.AllocsPerRun(100, func() {
		tab.StageTime(ops)
		tab.OpTime(5)
		tab.CommTime(1, 2)
	})
	if allocs != 0 {
		t.Fatalf("memoized probes allocate %v times, want 0", allocs)
	}
}
