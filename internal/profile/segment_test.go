package profile

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/units"
)

// commitAll prices every stage of stages, which name positions + 1 in
// block, and commits them as one batch, as the IOS dynamic program does.
func commitAll(tab *CostTable, block []graph.OpID, stages ...[]uint16) {
	batch := make([]cost.MemoProbe, 0, len(stages))
	for _, st := range stages {
		p := cost.MemoProbe{}
		ops := make([]graph.OpID, len(st))
		for i, x := range st {
			p.Members[i] = x
			ops[i] = block[x-1]
		}
		p.Time = tab.PriceStage(ops)
		batch = append(batch, p)
	}
	tab.CommitStages(block, batch)
}

// TestSegmentRecommitChargesNothing commits one block twice, directly
// and through two IOS solves on one table: the second commit finds every
// probe in the first one's segment, so it charges nothing, and Stats and
// Export stay as they were.
func TestSegmentRecommitChargesNothing(t *testing.T) {
	tab := NewTable(mixModel{}, 1, 1)
	block := []graph.OpID{40, 7, 19, 3}
	stages := [][]uint16{{1}, {2}, {1, 2}, {2, 3, 4}, {3}, {1, 2, 3, 4}, {4}}
	commitAll(tab, block, stages...)
	if len(tab.segs) != 1 {
		t.Fatalf("a fresh table holds %d segments after one commit, want 1", len(tab.segs))
	}
	st, snap := tab.Stats(), mustExport(t, tab)
	if st.OpProbes != 4 || st.StageProbes != 3 {
		t.Fatalf("Stats = %+v, want 4 op and 3 stage probes", st)
	}
	commitAll(tab, block, stages...)
	if got := tab.Stats(); got != st { //lint:floatexact nothing may be charged
		t.Fatalf("recommitting the block: Stats %+v, was %+v", got, st)
	}
	if !bytes.Equal(mustExport(t, tab), snap) {
		t.Fatal("recommitting the block changed the export")
	}
	if len(tab.segs) != 1 || len(tab.stages.vals) != 0 || len(tab.ops) != 0 {
		t.Fatalf("recommit stored %d segments, %d map stages, %d map ops", len(tab.segs), len(tab.stages.vals), len(tab.ops))
	}

	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 60, 6, 120, 4
	g := randdag.MustGenerate(cfg)
	ios1 := NewTable(cost.FromGraph(g, cost.DefaultContention()), 1, 1)
	first, err := ios.Schedule(g, ios1, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, snap = ios1.Stats(), mustExport(t, ios1)
	if len(ios1.segs) == 0 {
		t.Fatal("an IOS solve on a fresh table committed no segment")
	}
	again, err := ios.Schedule(g, ios1, ios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Schedule.String() != first.Schedule.String() {
		t.Fatal("the second solve on one table scheduled differently")
	}
	if got := ios1.Stats(); got != st { //lint:floatexact nothing may be charged
		t.Fatalf("second IOS solve: Stats %+v, was %+v", got, st)
	}
	if !bytes.Equal(mustExport(t, ios1), snap) {
		t.Fatal("second IOS solve changed the export")
	}
}

// TestSegmentConcurrentSolves runs four IOS solves on one shared table
// while readers probe stages, some held by the solves' segments and some
// new, and requires the probe counts and the export of a serial run: the
// solves, then the readers' probes.
func TestSegmentConcurrentSolves(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 40, 5, 80, 6
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	n := graph.OpID(g.NumOps())
	read := func(tab *CostTable) {
		for v := graph.OpID(0); v+3 < n; v++ {
			tab.StageTime([]graph.OpID{v + 1, v})
			tab.StageTime([]graph.OpID{v, v + 1, v + 3})
			tab.OpTime(v)
		}
	}

	serial := NewTable(m, 1, 1)
	if _, err := ios.Schedule(g, serial, ios.Options{}); err != nil {
		t.Fatal(err)
	}
	read(serial)

	shared := NewTable(m, 1, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := ios.Schedule(g, shared, ios.Options{}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			read(shared)
		}()
	}
	wg.Wait()
	got, want := shared.Stats(), serial.Stats()
	if got.OpProbes != want.OpProbes || got.StageProbes != want.StageProbes || got.CommProbes != want.CommProbes {
		t.Fatalf("concurrent table %+v, serial run %+v", got, want)
	}
	if !bytes.Equal(mustExport(t, shared), mustExport(t, serial)) {
		t.Fatal("concurrent table exports other measurements than the serial run")
	}
}

// TestSegmentHitsAllocFree extends TestHitsAllocFree to probes a
// segment answers.
func TestSegmentHitsAllocFree(t *testing.T) {
	tab := NewTable(mixModel{}, 1, 1)
	block := []graph.OpID{9, 4, 6}
	commitAll(tab, block, []uint16{1}, []uint16{1, 2, 3})
	ops := []graph.OpID{6, 9, 4}
	want := tab.StageTime(ops)
	allocs := testing.AllocsPerRun(100, func() {
		tab.StageTime(ops)
		tab.OpTime(9)
	})
	if allocs != 0 || len(tab.ops) != 0 || len(tab.stages.vals) != 0 || want != (mixModel{}).StageTime(ops) { //lint:floatexact a memoized value
		t.Fatalf("segment hits allocate %v times, or missed into the maps (%d ops, %d stages)", allocs, len(tab.ops), len(tab.stages.vals))
	}
}

// fuzzModel is mixModel with hashed transfer times.
type fuzzModel struct{ mixModel }

func (m fuzzModel) CommTime(u, v graph.OpID) units.Millis { return m.item(31*u + v).Time }

// fuzzPool is the operators a FuzzTableBatch input names by a nibble:
// small IDs, the owner index's last and first excluded IDs, and IDs
// around the inline stage key's limit.
var fuzzPool = [16]graph.OpID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	segmentIDs - 1, segmentIDs, math.MaxUint32 - 1, math.MaxUint32, 1 << 40}

// FuzzTableBatch holds the cost.MemoModel batch path against plain
// probes. Each input is a command sequence run on two tables over one
// pure model: the table under test takes blocks as PriceStage probes
// committed by CommitStages, the reference takes the same probes through
// StageTime and OpTime only, and both take the same StageTime, OpTime and
// CommTime queries between blocks. Every returned value, Stats (with the
// SimulatedMs bits) after every command, and the Export bytes at the end
// must be equal.
//
// A command byte selects, by its value mod 4:
//
//	0: a block: a size byte (1–10 operators), one pool byte per
//	   operator (repeats allowed), a probe count byte (0–31), and per
//	   probe a 2-byte position mask and a rotation byte for the call
//	   order. A stage wider than cost.MemoWidth flushes the batch first
//	   and is probed with StageTime, as the IOS dynamic program does.
//	1: StageTime of the pool members in a 2-byte mask, rotated by a byte.
//	2: OpTime of a pool member.
//	3: CommTime of two pool members.
//
// Missing bytes read as zero. The seed corpus lives in
// testdata/fuzz/FuzzTableBatch.
func FuzzTableBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		mask16 := func() uint16 { return uint16(next()) | uint16(next())<<8 }
		tab, ref := NewTable(fuzzModel{}, 1, 2), NewTable(fuzzModel{}, 1, 2)
		same := func(what string, got, want units.Millis) {
			t.Helper()
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: batch table %v, reference %v", what, got, want)
			}
		}
		for cmds := 0; len(data) > 0 && cmds < 64; cmds++ {
			switch next() % 4 {
			case 0:
				block := make([]graph.OpID, 1+int(next())%10)
				for i := range block {
					block[i] = fuzzPool[next()&15]
				}
				var batch []cost.MemoProbe
				seen := map[uint16]bool{}
				for range int(next()) % 32 {
					mask := mask16() & (1<<len(block) - 1)
					rot := int(next())
					if mask == 0 {
						continue
					}
					var stage []graph.OpID
					var p cost.MemoProbe
					for x := mask; x != 0; x &= x - 1 {
						i := bits.TrailingZeros16(x)
						if len(stage) < cost.MemoWidth {
							p.Members[len(stage)] = uint16(i + 1)
						}
						stage = append(stage, block[i])
					}
					k := rot % len(stage)
					stage = slices.Concat(stage[k:], stage[:k])
					if len(stage) > cost.MemoWidth {
						tab.CommitStages(block, batch)
						batch = batch[:0]
						same("wide StageTime", tab.StageTime(stage), ref.StageTime(stage))
						continue
					}
					if seen[mask] { // the caller's own memo answers a repeat
						continue
					}
					seen[mask] = true
					p.Time = tab.PriceStage(stage)
					if len(stage) == 1 {
						same("PriceStage of one operator", p.Time, ref.OpTime(stage[0]))
					} else {
						same("PriceStage", p.Time, ref.StageTime(stage))
					}
					batch = append(batch, p)
				}
				tab.CommitStages(block, batch)
			case 1:
				mask, rot := mask16(), int(next())
				var stage []graph.OpID
				for x := mask; x != 0; x &= x - 1 {
					stage = append(stage, fuzzPool[bits.TrailingZeros16(x)])
				}
				if len(stage) == 0 {
					continue
				}
				k := rot % len(stage)
				stage = slices.Concat(stage[k:], stage[:k])
				same("StageTime", tab.StageTime(stage), ref.StageTime(stage))
			case 2:
				v := fuzzPool[next()&15]
				same("OpTime", tab.OpTime(v), ref.OpTime(v))
			case 3:
				b := next()
				u, v := fuzzPool[b&15], fuzzPool[b>>4]
				same("CommTime", tab.CommTime(u, v), ref.CommTime(u, v))
			}
			if got, want := tab.Stats(), ref.Stats(); got != want || math.Float64bits(float64(got.SimulatedMs)) != math.Float64bits(float64(want.SimulatedMs)) { //lint:floatexact the bits are compared too
				t.Fatalf("after command %d: batch table %+v, reference %+v", cmds, got, want)
			}
		}
		if got, want := mustExport(t, tab), mustExport(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("exports differ:\nbatch table %s\nreference   %s", got, want)
		}
	})
}
