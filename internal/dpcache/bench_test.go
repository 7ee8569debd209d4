package dpcache

import "testing"

// blockKeys returns n distinct block signatures of a typical length.
func blockKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		sig := NewSig(nil)
		sig.Int(i)
		for j := 0; j < 24; j++ {
			sig.Float(0.1 * float64(i+j))
			sig.Int(j)
		}
		keys[i] = sig.Bytes()
	}
	return keys
}

// BenchmarkBlockProbeHit is one block solve answered from the cache: the
// counted lookup of a scratch-buffer key. One op is one probe.
func BenchmarkBlockProbeHit(b *testing.B) {
	c := New()
	keys := blockKeys(1024)
	stages := [][]int32{{0}, {1, 2}}
	for _, k := range keys {
		c.Put(k, stages)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkBlockProbeMiss is one block signature the cache has not seen:
// the counted lookup and the insert that follows a solve. A fresh cache
// replaces the full one every len(keys) probes, so map growth is part of
// the cost. One op is one probe.
func BenchmarkBlockProbeMiss(b *testing.B) {
	keys := blockKeys(1 << 14)
	stages := [][]int32{{0}, {1, 2}}
	var c *Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if k == 0 {
			c = New()
		}
		if _, ok := c.Get(keys[k]); !ok {
			c.Put(keys[k], stages)
		}
	}
}
