package profile

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/units"
)

// BenchmarkStageSig measures the cost of building the memoization key for
// a typical 4-operator stage probe: the inline stageKey performs zero heap
// allocations — check allocs/op with
// `go test -bench StageSig -benchmem ./internal/profile`.
func BenchmarkStageSig(b *testing.B) {
	ops := []graph.OpID{17, 4, 199, 42}
	b.ReportAllocs()
	b.ResetTimer()
	var sink stageKey
	for i := 0; i < b.N; i++ {
		sink, _ = inlineKey(ops)
	}
	_ = sink
}

// BenchmarkStageSigWide exercises the spill path (> cost.MemoWidth
// members): the sorted exact encoding a spilled stage is interned by,
// built with one allocation. No scheduler probes stages this wide at its
// default options (IOS caps at MaxStage = 8).
func BenchmarkStageSigWide(b *testing.B) {
	ops := []graph.OpID{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	b.ReportAllocs()
	b.ResetTimer()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = spillSig(ops)
	}
	_ = sink
}

// BenchmarkStageTimeHit measures a memoized stage probe end to end: key
// build + read-locked lookup. This is the table's steady state inside the
// IOS dynamic program and must stay allocation-free.
func BenchmarkStageTimeHit(b *testing.B) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 50, 5, 100, 3
	g := randdag.MustGenerate(cfg)
	tab := NewTable(cost.FromGraph(g, cost.DefaultContention()), 1, 1)
	ops := []graph.OpID{3, 9, 21, 33}
	tab.StageTime(ops) // memoize
	b.ReportAllocs()
	b.ResetTimer()
	var sink units.Millis
	for i := 0; i < b.N; i++ {
		sink = tab.StageTime(ops)
	}
	_ = sink
}

// BenchmarkStageTimeMiss measures a first stage probe end to end: key
// build, lookup, the inner model's price, the insert and the simulated
// profiler charge. Each iteration probes a distinct 4-operator stage, and
// a fresh table replaces the full one every len(stages) probes, so table
// growth is part of the cost, as it is in an IOS solve.
func BenchmarkStageTimeMiss(b *testing.B) {
	cfg := randdag.Paper()
	cfg.Seed = 3
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	n := graph.OpID(g.NumOps())
	stages := make([][]graph.OpID, 0, 1<<14)
	for a := graph.OpID(0); len(stages) < cap(stages); a++ {
		stages = append(stages, []graph.OpID{a % n, (a + 1) % n, (a/n + a + 2) % n, (a/n + a + 5) % n})
	}
	var tab *CostTable
	b.ReportAllocs()
	b.ResetTimer()
	var sink units.Millis
	for i := 0; i < b.N; i++ {
		k := i % len(stages)
		if k == 0 {
			tab = NewTable(m, 1, 1)
		}
		sink = tab.StageTime(stages[k])
	}
	_ = sink
}
