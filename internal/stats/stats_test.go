package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := Std(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", got, want)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{3}) != 0 {
		t.Fatal("empty/degenerate cases wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
}

func TestSample(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	if s.N() != 3 || s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("Sample summary wrong: %+v", s)
	}
	if math.Abs(s.Std()-1) > 1e-12 {
		t.Fatalf("Sample std = %g", s.Std())
	}
	if len(s.Values()) != 3 {
		t.Fatal("Values lost data")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip pathological magnitudes whose sum overflows;
			// experiment data is in milliseconds.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9*math.Abs(Min(xs))-1e-9 &&
			m <= Max(xs)+1e-9*math.Abs(Max(xs))+1e-9 &&
			Std(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, eps float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},             // absolute tolerance
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative tolerance at scale
		{1, 1.001, 1e-9, false},
		{0, 1e-12, 1e-9, true},
		{0, 1e-3, 1e-9, false},
		{1, 2, 0, false}, // eps<=0 selects the default, still unequal
		{1, 1, -1, true}, // eps<=0 selects the default
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false},
		{math.NaN(), 1, 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.eps); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.eps, got, c.want)
		}
	}
}

func TestApproxEqualSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		return ApproxEqual(a, b, 1e-9) == ApproxEqual(b, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
