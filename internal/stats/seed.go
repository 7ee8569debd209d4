package stats

// Seed-stream helpers: the sanctioned home of splitmix64 seed mixing
// (the seedflow analyzer flags the constants anywhere else). Every
// deterministic component that needs several independent RNG streams —
// per-tenant arrival processes and the router streams in
// internal/cluster, per-seed sweep instances in internal/experiments —
// derives child seeds here instead
// of hand-rolling `seed + i` arithmetic, which produces correlated
// streams (math/rand's LCG-seeded generators with adjacent seeds start
// in nearly identical states).

// MixSeed derives the i-th child seed from a base seed with one
// splitmix64 step (Steele et al., "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014): adjacent (seed, i) pairs yield statistically
// unrelated outputs. The mapping is pure, so the same base seed and
// index always produce the same child seed.
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SeedStream hands out a deterministic sequence of decorrelated child
// seeds from one base seed. The zero value is not useful; construct with
// NewSeedStream. Streams are not safe for concurrent use.
type SeedStream struct {
	base int64
	next int
}

// NewSeedStream returns a stream of child seeds derived from base.
func NewSeedStream(base int64) *SeedStream {
	return &SeedStream{base: base}
}

// Next returns the next child seed. The n-th call returns
// MixSeed(base, n-1), so a stream is equivalent to indexed mixing.
func (s *SeedStream) Next() int64 {
	v := MixSeed(s.base, s.next)
	s.next++
	return v
}
