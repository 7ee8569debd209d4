// Package memo is the read-mostly memo table under the process's two
// shared caches: costcache (probes by shape) and dpcache (IOS block
// solves by signature).
//
// Every value a memo holds is a pure function of its key. A lookup takes
// the read lock; a miss computes its value outside any lock and inserts
// under the write lock with a re-check. Racers compute bit-identical
// values and the first insert wins, so results are deterministic under
// any interleaving, and parallel sweep workers can share one memo.
package memo

import (
	"sync"
	"sync/atomic"
)

// Map is a concurrent memo table without counters: a hit costs one
// read-locked lookup. It is used through Counted.
type Map[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Get returns the value memoized for *k, which it does not retain. The
// key is passed by pointer because Get is too large to inline, so a
// large key passed by value would be copied on every probe.
func (m *Map[K, V]) Get(k *K) (V, bool) {
	m.mu.RLock()
	v, ok := m.m[*k]
	m.mu.RUnlock()
	return v, ok
}

// Put memoizes v for k unless k already has a value. It returns the
// value k holds afterwards and whether this call stored it, so a racer
// that lost gets the winner's value back.
func (m *Map[K, V]) Put(k K, v V) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.m[k]; ok {
		return old, false
	}
	m.m[k] = v
	return v, true
}

// Len returns the number of memoized keys.
func (m *Map[K, V]) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// Reset drops every memoized value.
func (m *Map[K, V]) Reset() {
	fresh := make(map[K]V) // built before locking: the section is one swap
	m.mu.Lock()
	m.m = fresh
	m.mu.Unlock()
}

// Counted is a Map whose lookups count hits and misses in atomics. A
// concurrent miss may be counted before its insert is visible, so
// Hits+Misses can briefly exceed Len, never the reverse. The zero value
// is not ready; use NewCounted.
type Counted[K comparable, V any] struct {
	Map[K, V]
	hits, misses atomic.Int64
}

// NewCounted returns an empty Counted.
func NewCounted[K comparable, V any]() *Counted[K, V] {
	return &Counted[K, V]{Map: Map[K, V]{m: make(map[K]V)}}
}

// Get returns the value memoized for *k, counting a hit or a miss.
func (c *Counted[K, V]) Get(k *K) (V, bool) {
	v, ok := c.Map.Get(k)
	c.count(ok)
	return v, ok
}

// GetBytes is Get for a string key held in a byte slice, which it
// converts without allocating and never retains: the key may be a
// reusable scratch buffer.
func GetBytes[V any](c *Counted[string, V], key []byte) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[string(key)]
	c.mu.RUnlock()
	c.count(ok)
	return v, ok
}

func (c *Counted[K, V]) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Hits returns the number of lookups answered from the map.
func (c *Counted[K, V]) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that found nothing.
func (c *Counted[K, V]) Misses() int64 { return c.misses.Load() }

// Reset drops every memoized value and zeroes the counters.
func (c *Counted[K, V]) Reset() {
	c.Map.Reset()
	c.hits.Store(0)
	c.misses.Store(0)
}
