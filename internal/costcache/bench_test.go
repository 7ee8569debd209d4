package costcache

import (
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/units"
)

// kernels returns n distinct kernel shapes.
func kernels(n int) []gpu.Kernel {
	ks := make([]gpu.Kernel, n)
	for i := range ks {
		ks[i] = gpu.Kernel{FLOPs: units.FLOPs(1e6 * float64(i+1)), Bytes: units.Bytes(4096 * (i + 1)), Threads: float64(1024 * (i + 1))}
	}
	return ks
}

// BenchmarkKernelProbeHit is one kernel probe answered from the cache:
// the shape signature and the counted lookup. One op is one probe.
func BenchmarkKernelProbeHit(b *testing.B) {
	d := gpu.DualA40().Dev
	c := New()
	ks := kernels(1024)
	for _, k := range ks {
		c.KernelTime(d, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.KernelTime(d, ks[i%len(ks)])
	}
}

// BenchmarkKernelProbeMiss is one first kernel probe: the lookup, the
// device model's price and the insert. A fresh cache replaces the full
// one every len(ks) probes, so map growth is part of the cost. One op is
// one probe.
func BenchmarkKernelProbeMiss(b *testing.B) {
	d := gpu.DualA40().Dev
	ks := kernels(1 << 14)
	var c *Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ks)
		if k == 0 {
			c = New()
		}
		c.KernelTime(d, ks[k])
	}
}
