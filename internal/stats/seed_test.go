package stats

import "testing"

func TestMixSeedDeterministicAndDecorrelated(t *testing.T) {
	if MixSeed(7, 0) != MixSeed(7, 0) {
		t.Fatal("MixSeed is not deterministic")
	}
	// Adjacent inputs must not produce adjacent outputs (the failure mode
	// of raw seed+i derivation).
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		v := MixSeed(7, i)
		if seen[v] {
			t.Fatalf("MixSeed(7, %d) collided", i)
		}
		seen[v] = true
		if d := v - MixSeed(7, i+1); d == 1 || d == -1 {
			t.Fatalf("MixSeed(7, %d) and MixSeed(7, %d) are adjacent", i, i+1)
		}
	}
	if MixSeed(7, 1) == MixSeed(8, 1) {
		t.Fatal("different base seeds produced the same child seed")
	}
}
