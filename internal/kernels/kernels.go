// Package kernels provides the compute kernel the multi-worker executor
// runs on each simulated GPU: a deterministic synthetic operator (Synth)
// that derives its output from its inputs through a fixed mixing function
// and burns a calibrated amount of floating-point work, so schedules with
// different concurrency exhibit realistic timing while remaining
// bit-reproducible. The executor runs Synth for every operator, CNN
// benchmarks included.
//
// The dense kernels (GEMM, direct 2-D convolution, pooling, elementwise
// add, channel concat) are reference implementations checked against
// naive re-computation in this package's tests; nothing else calls them.
package kernels

import (
	"math"
	"sync/atomic"
)

// Gemm computes C = A (m x k) * B (k x n), row-major.
func Gemm(a, b []float32, m, k, n int) []float32 {
	if len(a) != m*k || len(b) != k*n {
		panic("kernels: Gemm dimension mismatch")
	}
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := a[i*k+l]
			if av == 0 {
				continue
			}
			row := b[l*n : (l+1)*n]
			out := c[i*n : (i+1)*n]
			for j := range row {
				out[j] += av * row[j]
			}
		}
	}
	return c
}

// Conv2D computes a direct 2-D convolution. Input is CHW, weights are
// [outC][inC][kH][kW] flattened, stride s, padding p. Returns the CHW
// output and its spatial size.
func Conv2D(in []float32, inC, h, w int, weight []float32, outC, kH, kW, s, p int) ([]float32, int, int) {
	outH := (h+2*p-kH)/s + 1
	outW := (w+2*p-kW)/s + 1
	if outH <= 0 || outW <= 0 {
		panic("kernels: Conv2D kernel does not fit input")
	}
	if len(in) != inC*h*w || len(weight) != outC*inC*kH*kW {
		panic("kernels: Conv2D dimension mismatch")
	}
	out := make([]float32, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float32
				for ic := 0; ic < inC; ic++ {
					for ky := 0; ky < kH; ky++ {
						iy := oy*s + ky - p
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kW; kx++ {
							ix := ox*s + kx - p
							if ix < 0 || ix >= w {
								continue
							}
							acc += in[(ic*h+iy)*w+ix] * weight[((oc*inC+ic)*kH+ky)*kW+kx]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, outH, outW
}

// MaxPool2D computes max pooling over a CHW tensor.
func MaxPool2D(in []float32, c, h, w, k, s, p int) ([]float32, int, int) {
	outH := (h+2*p-k)/s + 1
	outW := (w+2*p-k)/s + 1
	out := make([]float32, c*outH*outW)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < k; ky++ {
					iy := oy*s + ky - p
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s + kx - p
						if ix < 0 || ix >= w {
							continue
						}
						if v := in[(ch*h+iy)*w+ix]; v > best {
							best = v
						}
					}
				}
				out[(ch*outH+oy)*outW+ox] = best
			}
		}
	}
	return out, outH, outW
}

// Add sums two equal-length vectors.
func Add(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic("kernels: Add length mismatch")
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Concat joins vectors end to end (channel concat of flattened CHW
// tensors with equal spatial dims).
func Concat(parts ...[]float32) []float32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]float32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// sink defeats dead-code elimination of Synth's work loop. Stored
// atomically because the executor runs Synth from one goroutine per GPU.
var sink atomic.Uint32

// SynthLen is the output length of every synthetic operator: small enough
// to keep transfers cheap in tests, large enough to be a meaningful
// payload.
const SynthLen = 64

// Synth executes the synthetic operator for graphs without tensor
// semantics. seed distinguishes operators; each input vector is folded
// into the state, then `work` fused multiply-add iterations run (the
// executor calibrates work from the operator's modeled latency). The
// result is a deterministic function of (seed, inputs, work), independent
// of scheduling, which is exactly the property the equivalence tests need.
func Synth(seed int64, inputs [][]float32, work int) []float32 {
	out := make([]float32, SynthLen)
	state := float32(seed%97) + 1
	for i := range out {
		out[i] = state + float32(i)
	}
	for _, in := range inputs {
		for i, v := range in {
			out[i%SynthLen] += v * 0.5
		}
	}
	// Burn deterministic floating-point work without perturbing the
	// result: the accumulator escapes to a package sink so the compiler
	// cannot elide the loop.
	acc := float32(1)
	for i := 0; i < work; i++ {
		acc = acc*1.0000001 + float32(i&7)*1e-7
	}
	sink.Store(math.Float32bits(acc))
	for i := range out {
		out[i] = float32(math.Round(float64(out[i])*1e4) / 1e4)
	}
	return out
}
