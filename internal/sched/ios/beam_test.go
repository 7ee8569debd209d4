package ios

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/shus-lab/hios/internal/units"
)

// TestSelectBeamMatchesSort fills buckets through transition, behind the
// enumeration loops' beam cut, with repeated improvements, many equal
// costs and ties at the bucket's bound, and requires selectBeam to return
// the first beam states of a full (cost, bitset) sort of the bucket, in
// that order, for beams of 1 to 8. The colliding hash has zero high bits,
// so every index tag collides and each lookup compares full sets.
func TestSelectBeamMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var improved, ties, selections int
	for beam := 1; beam <= 8; beam++ {
		for trial := 0; trial < 300; trial++ {
			var s solver
			s.reset(0, 0, Options{MaxStage: 1})
			s.topLimit = beam + 1
			s.aim(0)
			pd := s.tgt[1] // one-member stages land in slot 1

			// A small universe of distinct sets makes repeats, and so
			// improvements; a coarse cost grid makes equal costs. The
			// hash is a function of the set that collides often.
			universe := make([]bitset, 0, 4*beam)
			for len(universe) < 1+rng.Intn(4*beam) {
				b := bitset{uint64(rng.Intn(3)), uint64(rng.Intn(40))}
				if !slices.Contains(universe, b) {
					universe = append(universe, b)
				}
			}
			for k := 0; k < 6*len(universe); k++ {
				s.nset = universe[rng.Intn(len(universe))]
				s.nhash = s.nset[0] ^ s.nset[1]&3
				s.curDone = int32(k)
				c := units.Millis(rng.Intn(6)) * 0.5
				if oi, _ := pd.find(s.nhash, &s.nset); oi >= 0 && c < pd.states[oi].cost && !(c > pd.bound) {
					improved++
				}
				if !(c > pd.bound) {
					s.transition(pd, c, &s.nset, s.nhash)
				}
			}
			n := len(pd.states)
			if n <= beam {
				continue // solveBlock selects only from a bucket larger than the beam
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.Slice(want, func(i, j int) bool {
				x, y := &pd.states[want[i]], &pd.states[want[j]]
				if x.cost != y.cost { //lint:floatexact the reference order compares exact costs
					return x.cost < y.cost
				}
				for w := range x.set {
					if x.set[w] != y.set[w] {
						return x.set[w] < y.set[w]
					}
				}
				return false
			})
			if pd.states[want[beam-1]].cost == pd.bound && pd.states[want[beam]].cost == pd.bound { //lint:floatexact ties on a grid of exact halves
				ties++
			}
			selections++
			if got := s.selectBeam(pd, beam); !slices.Equal(got, want[:beam]) {
				t.Fatalf("beam %d trial %d: selectBeam = %v, sorted prefix %v", beam, trial, got, want[:beam])
			}
		}
	}
	if improved == 0 || ties == 0 || selections < 1000 {
		t.Fatalf("%d selections, %d improvements, %d ties at the bound: the buckets exercise too little", selections, improved, ties)
	}
}
