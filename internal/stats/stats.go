// Package stats provides the small statistical helpers the experiment
// harness reports with: each data point in the paper is the average of 30
// simulated instances (or 36 measured runs) with standard deviations.
package stats

import "math"

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator), 0 for
// fewer than two samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Min returns the minimum, +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Eps is the default tolerance for ApproxEqual: latencies and costs in
// this repository are milliseconds-scale float64 sums, for which nine
// significant digits comfortably exceed any real difference while
// absorbing accumulation-order noise in the last ulps.
const Eps = 1e-9

// ApproxEqual reports whether a and b differ by at most eps in absolute
// terms or, for large magnitudes, in relative terms (|a-b| <=
// eps*max(|a|,|b|)). It is the comparison the floatcmp analyzer points
// to: exact == / != on computed latencies flips with accumulation order,
// while an epsilon compare is stable. eps <= 0 selects Eps. NaN equals
// nothing, mirroring IEEE semantics.
func ApproxEqual(a, b, eps float64) bool {
	if eps <= 0 {
		eps = Eps
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { // exact hit, including equal infinities
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // a finite value never approximates an infinity
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}

// Percentile returns the p-th percentile of a slice that is already
// sorted ascending, using the nearest-rank definition: the smallest
// element such that at least p percent of the data is <= it. p <= 0
// selects the first element, p >= 100 the last; an empty slice yields 0.
// Nearest-rank (rather than interpolation) keeps the result an actual
// observation, which is what tail-latency reporting wants.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Sample accumulates observations and reports summary statistics.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return Mean(s.xs) }

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return Std(s.xs) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return Min(s.xs) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return Max(s.xs) }

// Values returns the raw observations (not a copy).
func (s *Sample) Values() []float64 { return s.xs }
