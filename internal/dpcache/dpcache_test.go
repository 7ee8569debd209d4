package dpcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New()
	key := []byte("block-a")
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	stages := [][]int32{{0, 1}, {2}}
	c.Put(key, stages)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if len(got) != 2 || got[0][0] != 0 || got[0][1] != 1 || got[1][0] != 2 {
		t.Fatalf("Get = %v, want %v", got, stages)
	}
	// The key may be a scratch buffer: mutating it afterwards must not
	// perturb the stored entry.
	key[0] = 'x'
	if _, ok := c.Get([]byte("block-a")); !ok {
		t.Fatal("entry lost after caller reused the key buffer")
	}
}

func TestFirstInsertWins(t *testing.T) {
	c := New()
	key := []byte("k")
	first := [][]int32{{1}}
	c.Put(key, first)
	c.Put(key, [][]int32{{9}})
	got, _ := c.Get(key)
	if got[0][0] != 1 {
		t.Fatalf("second Put overwrote the first: %v", got)
	}
}

// TestRacersStoreOneValue races many writers on one key, each offering a
// different solve: every racer, and every reader after the race, sees
// the same stored solve.
func TestRacersStoreOneValue(t *testing.T) {
	c := New()
	key := []byte("k")
	const racers = 16
	var wg sync.WaitGroup
	got := make([]int32, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c.Put(key, [][]int32{{int32(100 + r)}})
			st, ok := c.Get(key)
			if !ok {
				t.Errorf("racer %d: miss after Put", r)
				return
			}
			got[r] = st[0][0]
		}(r)
	}
	wg.Wait()
	want, _ := c.Get(key)
	for r, v := range got {
		if v != want[0][0] {
			t.Fatalf("racer %d saw %d, stored solve is %d", r, v, want[0][0])
		}
	}
	if st := c.Stats(); st.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", st.Blocks)
	}
}

// TestGetAllocFree pins the hit path: a lookup converts the scratch key
// without allocating. The key is longer than the 32 bytes a conversion
// may borrow from the stack, as real block signatures are.
func TestGetAllocFree(t *testing.T) {
	c := New()
	key := bytes.Repeat([]byte("block-signature/"), 4)
	c.Put(key, [][]int32{{1}})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("miss on a stored key")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v times per lookup, want 0", allocs)
	}
}

func TestStatsAndReset(t *testing.T) {
	c := New()
	c.Put([]byte("a"), [][]int32{{0}})
	c.Get([]byte("a"))
	c.Get([]byte("b"))
	st := c.Stats()
	if st.Blocks != 1 || st.Hits != 1 || st.Misses != 1 || st.Probes() != 2 {
		t.Fatalf("stats = %+v, want 1 block, 1 hit, 1 miss", st)
	}
	c.Reset()
	if st := c.Stats(); st.Blocks != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after Reset = %+v, want zeros", st)
	}
	if _, ok := c.Get([]byte("a")); ok {
		t.Fatal("entry survived Reset")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("k%d", i%17))
				if st, ok := c.Get(key); ok {
					if st[0][0] != int32(i%17) {
						t.Errorf("worker %d read a corrupted entry: %v", w, st)
						return
					}
				} else {
					c.Put(key, [][]int32{{int32(i % 17)}})
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Blocks != 17 {
		t.Fatalf("blocks = %d, want 17", st.Blocks)
	}
}

func TestSigDeterministicAndDistinct(t *testing.T) {
	build := func(alpha float64, beam int) []byte {
		sig := NewSig(nil)
		sig.Float(alpha)
		sig.Int(beam)
		return append([]byte(nil), sig.Bytes()...)
	}
	if !bytes.Equal(build(0.2, 32), build(0.2, 32)) {
		t.Fatal("identical inputs produced different signatures")
	}
	a := build(0.2, 32)
	for _, other := range [][]byte{build(0.25, 32), build(0.2, 33)} {
		if bytes.Equal(a, other) {
			t.Fatal("distinct inputs collided")
		}
	}
	// Floats are exact bit patterns: +0 and -0 are different keys, as are
	// values one ulp apart.
	if bytes.Equal(build(0.0, 0), build(negZero(), 0)) {
		t.Fatal("+0 and -0 collided; signatures must be exact bit patterns")
	}
}

func negZero() float64 { z := 0.0; return -z }

func TestSigBufferReuse(t *testing.T) {
	sig := NewSig(nil)
	sig.Int(7)
	first := append([]byte(nil), sig.Bytes()...)
	reused := NewSig(sig.Bytes())
	reused.Int(7)
	if !bytes.Equal(first, reused.Bytes()) {
		t.Fatal("recycled buffer changed the signature")
	}
}
