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
