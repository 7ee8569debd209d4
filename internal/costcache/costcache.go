// Package costcache memoizes the analytic cost model across graphs.
//
// The roofline kernel model in internal/gpu and the contention stage
// model in internal/cost are pure functions of *shape* — device
// coefficients, FLOPs, bytes, thread counts — yet the experiment sweeps
// re-derive them from scratch for every graph, seed and input size,
// because every evaluation site addresses operators by OpID. This
// package keys the three §III-A probe kinds by their canonical shape
// signatures (gpu.KernelSig, gpu.TransferSig, cost.StageSig) in one
// read-mostly process-wide cache, so structurally identical kernels —
// the repeated cells of NASNet, the same convolution probed at every
// sweep point — are priced once per process rather than once per probe
// site.
//
// The cache sits BELOW profile.CostTable and is invisible to it: a
// CostTable keeps its own per-table maps and probe counters, so the
// Fig. 14 profiling-cost accounting (how many distinct probes an
// algorithm needs against a fresh table) is unchanged whether the
// shared cache is cold or warm.
//
// Concurrency: each probe kind is a memo.Counted table, whose values
// are pure functions of their keys and whose first insert wins, so
// parallel sweep workers share one cache without perturbing
// byte-identical figure output (see package memo).
package costcache

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/memo"
	"github.com/shus-lab/hios/internal/units"
)

// kernelEntry is a memoized solo-kernel probe: Device.Time and
// Device.Utilization are always wanted together.
type kernelEntry struct {
	time units.Millis
	util float64
}

// Cache memoizes kernel, transfer and stage probes by shape signature.
// The zero value is not ready; use New (or the process-wide Shared).
type Cache struct {
	kernels   *memo.Counted[gpu.KernelSig, kernelEntry]
	transfers *memo.Counted[gpu.TransferSig, units.Millis]
	stages    *memo.Counted[cost.StageSig, units.Millis]
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		kernels:   memo.NewCounted[gpu.KernelSig, kernelEntry](),
		transfers: memo.NewCounted[gpu.TransferSig, units.Millis](),
		stages:    memo.NewCounted[cost.StageSig, units.Millis](),
	}
}

var shared = New()

// Shared returns the process-wide cache every builder and sweep worker
// shares. Values are pure functions of their signatures, so sharing is
// safe across concurrent experiments; Reset exists for benchmarks that
// want cold-cache numbers.
func Shared() *Cache { return shared }

// KernelTime returns Device.Time and Device.Utilization of k on d,
// memoized by shape.
func (c *Cache) KernelTime(d gpu.Device, k gpu.Kernel) (units.Millis, float64) {
	sig := d.Sig(k)
	e, ok := c.kernels.Get(&sig)
	if !ok {
		e, _ = c.kernels.Put(sig, kernelEntry{time: d.Time(k), util: d.Utilization(k)})
	}
	return e.time, e.util
}

// TransferTime returns Link.TransferTime of b bytes across l, memoized
// by shape.
func (c *Cache) TransferTime(l gpu.Link, b units.Bytes) units.Millis {
	sig := l.Sig(b)
	t, ok := c.transfers.Get(&sig)
	if !ok {
		t, _ = c.transfers.Put(sig, l.TransferTime(b))
	}
	return t
}

// StageTime returns Contention.StageTimeItems for the members, memoized
// by shape. The signature preserves member order (see cost.StageSig), so
// the cached value is bit-identical to a direct evaluation.
func (c *Cache) StageTime(ct cost.Contention, items []cost.Item) units.Millis {
	sig := ct.Sig(items)
	t, ok := c.stages.Get(&sig)
	if !ok {
		t, _ = c.stages.Put(sig, ct.StageTimeItems(items))
	}
	return t
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Kernels, Transfers, Stages                int   // distinct cached signatures
	KernelHits, TransferHits, StageHits       int64 // probes answered from cache
	KernelMisses, TransferMisses, StageMisses int64 // probes computed and inserted
}

// Probes returns the total probe count the cache has served.
func (s Stats) Probes() int64 {
	return s.KernelHits + s.KernelMisses +
		s.TransferHits + s.TransferMisses +
		s.StageHits + s.StageMisses
}

// Stats snapshots the cache. The counters are monotonic atomics (a
// concurrent probe may be counted before its insert is visible, so
// Hits+Misses can briefly exceed the map sizes — never the reverse).
func (c *Cache) Stats() Stats {
	return Stats{
		Kernels:        c.kernels.Len(),
		Transfers:      c.transfers.Len(),
		Stages:         c.stages.Len(),
		KernelHits:     c.kernels.Hits(),
		TransferHits:   c.transfers.Hits(),
		StageHits:      c.stages.Hits(),
		KernelMisses:   c.kernels.Misses(),
		TransferMisses: c.transfers.Misses(),
		StageMisses:    c.stages.Misses(),
	}
}

// Reset drops every cached value and zeroes the counters. Results are
// unaffected by when (or whether) this is called — only hit rates are.
func (c *Cache) Reset() {
	c.kernels.Reset()
	c.transfers.Reset()
	c.stages.Reset()
}
