// Package locksafe mixes critical-section violations with the sanctioned
// idioms of the mutex-bearing packages: the want lines prove the analyzer
// fires on allocation, IO, cost-model computation, lock copies, leaked
// locks and unchecked double-checked inserts, while the clean functions
// pin that defer-unlock, branchy unlock-then-return, append publishing,
// plain struct snapshots and both re-check idioms stay silent.
package locksafe

import (
	"fmt"
	"sync"

	"github.com/shus-lab/hios/internal/gpu"
)

type guarded struct {
	mu    sync.RWMutex
	vals  map[int]float64
	items []int
}

type snapshotStats struct {
	N int
}

// Every allocation form and the IO call fire inside the section.
func (g *guarded) allocsUnderLock(n int) {
	g.mu.Lock()
	buf := make([]int, n) // want `make under held lock g\.mu`
	_ = buf
	p := new(int) // want `new under held lock g\.mu`
	_ = p
	m := map[int]bool{} // want `map literal allocates under held lock g\.mu`
	_ = m
	s := []int{1, 2} // want `slice literal allocates under held lock g\.mu`
	_ = s
	st := &snapshotStats{} // want `address-taken composite literal allocates under held lock g\.mu`
	_ = st
	fmt.Println(n) // want `fmt call under held lock g\.mu`
	g.mu.Unlock()
}

// The same constructs before the lock and after the unlock are fine.
func (g *guarded) allocsOutsideLock(n int) {
	buf := make([]int, n)
	g.mu.Lock()
	g.items = append(g.items, buf...) // append is the sanctioned publish idiom
	g.mu.Unlock()
	fmt.Println(len(buf))
}

// Cost-model calls belong outside the critical section.
func (g *guarded) computeUnderLock(d gpu.Device, k gpu.Kernel) {
	g.mu.Lock()
	t := d.Time(k) // want `cost-model computation under held lock g\.mu`
	g.vals[0] = float64(t)
	g.mu.Unlock()
}

func (g *guarded) computeOutsideLock(d gpu.Device, k gpu.Kernel) {
	t := d.Time(k)
	g.mu.Lock()
	g.vals[0] = float64(t)
	g.mu.Unlock()
}

type holder struct {
	mu sync.Mutex
	n  int
}

// wrapper embeds holder by value, so it carries the mutex transitively.
type wrapper struct {
	h holder
}

func (h holder) byValue() int { // want `receiver of byValue passes a mutex-containing struct by value`
	return h.n
}

func (h *holder) byPointer() int { return h.n }

func sumHolders(a wrapper) int { // want `parameter of sumHolders passes a mutex-containing struct by value`
	return a.h.n
}

func sumByPointer(a *wrapper) int { return a.h.n }

// An early return inside the section with no deferred unlock leaks the
// lock on that path.
func (g *guarded) leaky(cond bool) int {
	g.mu.Lock()
	if cond {
		return 1 // want `return with lock g\.mu held and no deferred unlock`
	}
	g.mu.Unlock()
	return 0
}

// Branchy early returns that unlock first are the supported shape.
func (g *guarded) branchy(cond bool) int {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return 1
	}
	g.mu.Unlock()
	return 0
}

// Deferred unlock makes any return inside the section safe.
func (g *guarded) deferred(cond bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cond {
		return 1
	}
	return 0
}

// Double-checked insert with no re-read between Lock and store: a racer's
// insert is overwritten.
func (g *guarded) insertNoRecheck(k int, v float64) float64 {
	g.mu.RLock()
	old, ok := g.vals[k]
	g.mu.RUnlock()
	if ok {
		return old
	}
	g.mu.Lock()
	g.vals[k] = v // want `store to g\.vals under write lock g\.mu without re-checking`
	g.mu.Unlock()
	return v
}

// The else-branch re-check is sanctioned.
func (g *guarded) insertElseRecheck(k int, v float64) float64 {
	g.mu.RLock()
	old, ok := g.vals[k]
	g.mu.RUnlock()
	if ok {
		return old
	}
	g.mu.Lock()
	if prev, ok := g.vals[k]; ok {
		v = prev
	} else {
		g.vals[k] = v
	}
	g.mu.Unlock()
	return v
}

// profile's defer-unlock early-return re-check is sanctioned too.
func (g *guarded) insertDeferRecheck(k int, v float64) float64 {
	g.mu.RLock()
	old, ok := g.vals[k]
	g.mu.RUnlock()
	if ok {
		return old
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.vals[k]; ok {
		return prev
	}
	g.vals[k] = v
	return v
}

// A plain struct snapshot under a read lock allocates nothing.
func (g *guarded) stats() snapshotStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return snapshotStats{N: len(g.vals)}
}

// A deliberate snapshot clone under the read lock can be suppressed.
func (g *guarded) snapshot() map[int]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	//lint:locksafe snapshot clone must allocate while the read lock pins the map
	out := make(map[int]float64, len(g.vals))
	for k, v := range g.vals {
		out[k] = v
	}
	return out
}

// Function literals are their own lock scope: the closure's allocation is
// not inside the enclosing section, and the worker's own lock usage is
// tracked separately.
func (g *guarded) spawn(n int) {
	g.mu.Lock()
	f := func() []int {
		return make([]int, 4)
	}
	g.mu.Unlock()
	_ = f()

	var mu sync.Mutex
	best := 0
	for i := 0; i < n; i++ {
		go func(i int) {
			mu.Lock()
			if i > best {
				best = i
			}
			mu.Unlock()
		}(i)
	}
}
