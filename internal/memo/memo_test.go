package memo

import (
	"sync"
	"testing"
)

// TestRacersStoreOneValue races many writers on one key, each offering a
// different value: exactly one Put reports storing, every Put returns
// the stored value, and every reader — during and after the race — sees
// that value or nothing.
func TestRacersStoreOneValue(t *testing.T) {
	m := NewCounted[int, int]()
	k := 7
	const racers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	stored := 0
	got := make([]int, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v, ok := m.Get(&k)
			if ok {
				got[r] = v
				return
			}
			v, won := m.Put(k, 100+r)
			if won {
				mu.Lock()
				stored++
				mu.Unlock()
			}
			got[r] = v
		}(r)
	}
	wg.Wait()
	want, ok := m.Get(&k)
	if !ok {
		t.Fatal("no value stored")
	}
	if stored != 1 {
		t.Fatalf("%d Puts reported storing, want exactly 1", stored)
	}
	for r, v := range got {
		if v != want {
			t.Fatalf("racer %d saw %d, stored value is %d", r, v, want)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestPutReportsWinner pins Put's result: the first insert stores and
// gets its own value back, a later one stores nothing and gets the
// first value.
func TestPutReportsWinner(t *testing.T) {
	m := NewCounted[string, int]()
	a := "a"
	if v, stored := m.Put("a", 1); v != 1 || !stored {
		t.Fatalf("first Put = (%d, %v), want (1, true)", v, stored)
	}
	if v, stored := m.Put("a", 2); v != 1 || stored {
		t.Fatalf("second Put = (%d, %v), want (1, false)", v, stored)
	}
	if v, ok := m.Get(&a); v != 1 || !ok {
		t.Fatalf("Get = (%d, %v), want (1, true)", v, ok)
	}
}

// TestCountedResetZeroes checks the counters follow lookups, and that
// Reset empties the map and zeroes them.
func TestCountedResetZeroes(t *testing.T) {
	c := NewCounted[string, int]()
	a, b := "a", "b"
	c.Put(a, 1)
	c.Get(&a)
	c.Get(&b)
	GetBytes(c, []byte("a"))
	if c.Hits() != 2 || c.Misses() != 1 || c.Len() != 1 {
		t.Fatalf("hits %d misses %d len %d, want 2 1 1", c.Hits(), c.Misses(), c.Len())
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.Len() != 0 {
		t.Fatalf("after Reset: hits %d misses %d len %d, want zeros", c.Hits(), c.Misses(), c.Len())
	}
	if _, ok := c.Map.Get(&a); ok {
		t.Fatal("entry survived Reset")
	}
}

// TestGetBytesAllocFree pins the byte-keyed lookup: a hit converts the
// scratch key without allocating.
func TestGetBytesAllocFree(t *testing.T) {
	c := NewCounted[string, []int32]()
	key := []byte("block-signature")
	c.Put(string(key), []int32{1})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := GetBytes(c, key); !ok {
			t.Fatal("miss on a stored key")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBytes allocates %v times per lookup, want 0", allocs)
	}
}
