package runtime

import (
	"math"
	"sync/atomic"
)

// sink defeats dead-code elimination of synth's work loop. Stored
// atomically because the executor runs synth from one goroutine per GPU.
var sink atomic.Uint32

// synthLen is the output length of every synthetic operator: small
// enough to keep transfers cheap, large enough to be a meaningful
// payload.
const synthLen = 64

// synth executes the synthetic operator every graph node runs. seed
// distinguishes operators; each input vector is folded into the state,
// then `work` fused multiply-add iterations run (the executor calibrates
// work from the operator's modeled latency). The result is a
// deterministic function of (seed, inputs, work), independent of
// scheduling, which is exactly the property the equivalence tests need.
func synth(seed int64, inputs [][]float32, work int) []float32 {
	out := make([]float32, synthLen)
	state := float32(seed%97) + 1
	for i := range out {
		out[i] = state + float32(i)
	}
	for _, in := range inputs {
		for i, v := range in {
			out[i%synthLen] += v * 0.5
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
