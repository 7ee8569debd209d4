package profile

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// mixModel is a pure cost.ItemModel whose items are hashed from the
// operator ID, for any ID. Its StageTime folds the items in call order,
// as cost.GraphModel does, so a stage of three or more members generally
// prices a few ulps apart in different member orders.
type mixModel struct{}

func (mixModel) item(v graph.OpID) cost.Item {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return cost.Item{
		Time: units.Millis(0.1 + 3.9*float64(x>>11)/(1<<53)),
		Util: 0.05 + 0.95*float64(x&0xffff)/(1<<16),
	}
}

func (m mixModel) OpTime(v graph.OpID) units.Millis    { return m.item(v).Time }
func (mixModel) CommTime(_, _ graph.OpID) units.Millis { return 0 }
func (mixModel) Contention() cost.Contention           { return cost.DefaultContention() }
func (m mixModel) StageItem(v graph.OpID) cost.Item    { return m.item(v) }
func (m mixModel) StageTime(ops []graph.OpID) units.Millis {
	items := make([]cost.Item, len(ops))
	for i, v := range ops {
		items[i] = m.item(v)
	}
	return m.Contention().StageTimeItems(items)
}

// sortedOnly is mixModel behind a plain cost.Model, so a table can price
// it only through StageTime; it fails the test when a stage's members
// arrive out of ascending ID order.
type sortedOnly struct{ t *testing.T }

func (s sortedOnly) OpTime(v graph.OpID) units.Millis      { return mixModel{}.OpTime(v) }
func (s sortedOnly) CommTime(_, _ graph.OpID) units.Millis { return 0 }
func (s sortedOnly) StageTime(ops []graph.OpID) units.Millis {
	if !slices.IsSorted(ops) {
		s.t.Fatalf("inner model got stage %v, members not ascending", ops)
	}
	return mixModel{}.StageTime(ops)
}

// permutations calls f with every permutation of ops (Heap's algorithm)
// when there are at most 8 members, and otherwise with ops reversed and
// 200 seeded shuffles: a 12-member stage has 479 million orders.
func permutations(ops []graph.OpID, f func([]graph.OpID)) {
	p := slices.Clone(ops)
	if len(p) > 8 {
		slices.Reverse(p)
		f(p)
		rng := rand.New(rand.NewSource(int64(len(p))))
		for range 200 {
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			f(p)
		}
		return
	}
	c := make([]int, len(p))
	f(p)
	for i := 0; i < len(p); {
		if c[i] < i {
			if i%2 == 0 {
				p[0], p[i] = p[i], p[0]
			} else {
				p[c[i]], p[i] = p[i], p[c[i]]
			}
			f(p)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// TestStagePriceIgnoresMemberOrder requires a table's price for a stage,
// and the snapshot that records it, to be a function of the member set:
// StageTime, PriceStage and a PriceStage+CommitStages batch on fresh
// tables return the bits of the ascending-order price, and export the
// same bytes, for every order of 2 to 8 inline members, 9 to 12 spilled
// members, and members past the inline key's ID range. A model that is
// not a cost.ItemModel sees every stage ascending, and a FrozenModel
// prices an unmeasured stage the same in every order.
func TestStagePriceIgnoresMemberOrder(t *testing.T) {
	big := graph.OpID(math.MaxUint32 - 1)
	var lists [][]graph.OpID
	for n := 2; n <= 12; n++ {
		ops := make([]graph.OpID, n)
		for i := range ops {
			ops[i] = graph.OpID(7*i*i + 3*i + 1) // spread, ascending
		}
		lists = append(lists, ops)
	}
	lists = append(lists, []graph.OpID{big + 2, 5, big, 1 << 40, big + 1})
	orderSensitive := 0
	for _, ops := range lists {
		sorted := slices.Sorted(slices.Values(ops))
		ref := NewTable(mixModel{}, 1, 1)
		want := math.Float64bits(float64(ref.StageTime(sorted)))
		wantSnap := mustExport(t, ref)
		frozen := frozenOps(t, ops)
		var wantFrozen units.Millis
		for _, v := range sorted {
			wantFrozen += mixModel{}.OpTime(v)
		}
		seen := map[uint64]bool{}
		check := func(what string, p []graph.OpID, got units.Millis) {
			t.Helper()
			if b := math.Float64bits(float64(got)); b != want {
				t.Fatalf("%s(%v) = %x, ascending order prices %x", what, p, b, want)
			}
		}
		permutations(ops, func(p []graph.OpID) {
			seen[math.Float64bits(float64(mixModel{}.StageTime(p)))] = true

			st := NewTable(mixModel{}, 1, 1)
			check("StageTime", p, st.StageTime(p))
			if !bytes.Equal(mustExport(t, st), wantSnap) {
				t.Fatalf("StageTime(%v) exports other bytes than the ascending order", p)
			}
			pt := NewTable(mixModel{}, 1, 1)
			x := pt.PriceStage(p)
			check("PriceStage", p, x)
			if len(p) <= cost.MemoWidth {
				probe := cost.MemoProbe{Time: x}
				for i := range p {
					probe.Members[i] = uint16(i + 1)
				}
				pt.CommitStages(p, []cost.MemoProbe{probe})
				if !bytes.Equal(mustExport(t, pt), wantSnap) {
					t.Fatalf("CommitStages(%v) exports other bytes than the ascending order", p)
				}
			}
			check("StageTime over a plain model", p, NewTable(sortedOnly{t}, 1, 1).StageTime(p))
			check("PriceStage over a plain model", p, NewTable(sortedOnly{t}, 1, 1).PriceStage(p))
			if got := frozen.StageTime(p); got != wantFrozen { //lint:floatexact the ascending sum is exact
				t.Fatalf("FrozenModel.StageTime(%v) = %v, ascending sum %v", p, got, wantFrozen)
			}
		})
		if len(seen) > 1 {
			orderSensitive++
		}
	}
	if orderSensitive < len(lists)/2 {
		t.Fatalf("the call-order fold differs by order on only %d of %d stages; the test shows little", orderSensitive, len(lists))
	}
}

// frozenOps loads a profile that measured ops alone, at mixModel's solo
// times, and no stage of them.
func frozenOps(t *testing.T, ops []graph.OpID) *FrozenModel {
	t.Helper()
	snap := Snapshot{Ops: map[graph.OpID]units.Millis{}}
	for _, v := range ops {
		snap.Ops[v] = mixModel{}.OpTime(v)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := Import(data)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}
