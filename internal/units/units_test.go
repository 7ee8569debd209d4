package units

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestBitExactFormulas asserts that the typed formulas used by the cost
// core after the units migration produce bit-for-bit the same float64 as
// the raw formulas they replaced. Equality here is exact (==), not
// approximate: the determinism contract (DESIGN.md §7/§8) promises
// byte-identical figures across the refactor, which holds only if every
// typed method performs the identical floating-point operation sequence.
func TestBitExactFormulas(t *testing.T) {
	// Representative magnitudes: A40 datasheet numbers and paper-scale
	// kernels, plus awkward values (subnormal-adjacent, huge, non-dyadic).
	flops := []float64{4800 * 48 * 64 * 64, 1.23456789e12, 7, 1e-3}
	bytess := []float64{4 * 48 * 1024 * 1024, 3.14159e9, 1, 1e-2}
	gflops := []float64{37400, 34100, 16400, 123.456}
	gbs := []float64{696, 768, 1134, 56.25, 12}
	utils := []float64{1.0 / 84, 0.35, 0.9999999, 1}

	for _, f := range flops {
		for _, g := range gflops {
			for _, e := range utils {
				for _, u := range utils {
					raw := f / (g * 1e9 * e * u) * 1e3
					typed := FLOPs(f).Over(GFLOPsPerSec(g).Scale(e).Scale(u)).Millis()
					if raw != float64(typed) {
						t.Fatalf("roofline compute: raw %x != typed %x (f=%g g=%g e=%g u=%g)",
							raw, float64(typed), f, g, e, u)
					}
				}
			}
		}
	}
	for _, b := range bytess {
		for _, g := range gbs {
			raw := b / (g * 1e9) * 1e3
			typed := Bytes(b).Over(GBPerSec(g)).Millis()
			if raw != float64(typed) {
				t.Fatalf("roofline memory: raw %x != typed %x (b=%g g=%g)", raw, float64(typed), b, g)
			}
		}
	}
	// Contention model: work accumulation t*u and the penalty multiply
	// t*(1+alpha*over).
	for _, ms := range []float64{0.005, 1.75, 410.8, 1e-9} {
		for _, u := range utils {
			if raw, typed := ms*u, Millis(ms).Scale(u); raw != float64(typed) {
				t.Fatalf("work accumulate: raw %x != typed %x", raw, float64(typed))
			}
			over := 0.75
			raw := ms * (1 + 0.2*over)
			typed := Millis(ms).Scale(1 + 0.2*over)
			if raw != float64(typed) {
				t.Fatalf("contention penalty: raw %x != typed %x", raw, float64(typed))
			}
		}
	}
	// Unit boundaries: ms→s, ms→µs, ratio.
	for _, ms := range []float64{0.02, 104.4, 3.024e6} {
		if raw, typed := ms/1e3, Millis(ms).Seconds(); raw != float64(typed) {
			t.Fatalf("ms->s: raw %x != typed %x", raw, float64(typed))
		}
		if raw, typed := ms*1e3, Millis(ms).Micros(); raw != float64(typed) {
			t.Fatalf("ms->µs: raw %x != typed %x", raw, float64(typed))
		}
		if raw, typed := ms/7.25, Millis(ms).Ratio(Millis(7.25)); raw != typed {
			t.Fatalf("ratio: raw %x != typed %x", raw, typed)
		}
	}
}

// TestDatasheetConstructorsExact pins that GFLOPsPerSec/GBPerSec lose no
// precision for every datasheet magnitude the repo uses: the products are
// integers below 2^53, hence exactly representable.
func TestDatasheetConstructorsExact(t *testing.T) {
	for _, g := range []float64{37400, 34100, 16400, 696, 768, 1134, 300, 12} {
		v := g * 1e9
		if v != math.Trunc(v) || v >= 1<<53 {
			t.Fatalf("%g GU/s = %g U/s is not an exact integer below 2^53", g, v)
		}
	}
	// 56.25 GB/s (the NVLink bridge per-direction bandwidth) is dyadic
	// (56.25 = 225/4), so 56.25e9 is exact too.
	if float64(GBPerSec(56.25)) != 56.25e9 {
		t.Fatal("56.25 GB/s constructor drifted")
	}
}

// TestAuditedUnitChains pins the cross-layer unit chains the dimensional
// audit walked (DESIGN.md §8): link bandwidth and the pipeline
// throughput inversion. Each was confirmed
// correct; these assertions keep them that way.
func TestAuditedUnitChains(t *testing.T) {
	// The NVLink bridge moves exactly 56.25e6 bytes per millisecond at
	// 56.25 GB/s: GB = 1e9 bytes and ms = 1e-3 s must cancel exactly, or
	// every transfer time in Fig. 2/7-11 shifts.
	if got := Bytes(56.25e6).Over(GBPerSec(56.25)).Millis(); got != 1.0 {
		t.Errorf("56.25e6 B over 56.25 GB/s = %v ms, want exactly 1", float64(got))
	}
	// Pipeline throughput inverts a period in ms to requests per second
	// as 1000/period; the typed path must agree with the raw runtime
	// division (not the compile-time constant fold, which rounds once
	// from exact arithmetic and can differ in the last ULP).
	period := Millis(104.4)
	raw := 104.4
	if got, want := 1000/float64(period), 1000/raw; got != want {
		t.Errorf("throughput inversion: %x != %x", got, want)
	}
}

// TestFormatNeutral asserts the types stay transparent to fmt and
// encoding/json: no String/Format/MarshalJSON methods may ever be added,
// or the rendered figures and exported traces would change.
func TestFormatNeutral(t *testing.T) {
	m := Millis(104.35678)
	for _, verb := range []string{"%v", "%g", "%.4g", "%.3f", "%f"} {
		if got, want := fmt.Sprintf(verb, m), fmt.Sprintf(verb, float64(m)); got != want {
			t.Errorf("fmt %s: Millis %q != float64 %q", verb, got, want)
		}
	}
	got, err := json.Marshal(struct {
		L Millis `json:"latency_ms"`
	}{m})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(struct {
		L float64 `json:"latency_ms"`
	}{float64(m)})
	if string(got) != string(want) {
		t.Errorf("json: Millis %s != float64 %s", got, want)
	}
	var iface any = m
	if _, ok := iface.(fmt.Stringer); ok {
		t.Error("Millis must not implement fmt.Stringer")
	}
	if _, ok := iface.(json.Marshaler); ok {
		t.Error("Millis must not implement json.Marshaler")
	}
}
