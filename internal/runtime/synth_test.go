package runtime

import "testing"

func TestSynthDeterministic(t *testing.T) {
	in := [][]float32{{1, 2, 3}, {4, 5}}
	a := synth(7, in, 1000)
	b := synth(7, in, 1000)
	if len(a) != synthLen {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synth is not deterministic")
		}
	}
}

func TestSynthWorkInvariant(t *testing.T) {
	// The output must not depend on the amount of burned work — only on
	// seed and inputs — or scheduling equivalence checks would break.
	in := [][]float32{{1, 2, 3}}
	a := synth(3, in, 10)
	b := synth(3, in, 100000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synth output depends on work amount")
		}
	}
}

func TestSynthDependsOnSeedAndInputs(t *testing.T) {
	in := [][]float32{{1, 2, 3}}
	a := synth(1, in, 10)
	b := synth(2, in, 10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("synth ignores the seed")
	}
	c := synth(1, [][]float32{{9, 9, 9}}, 10)
	same = true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("synth ignores its inputs")
	}
}
