package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// renderBoth returns the text and JSON renderings of a figure, so the
// equivalence tests compare every byte a consumer could observe.
func renderBoth(t *testing.T, fig Figure) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(fig.String())
	if err := fig.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSweepParallelMatchesSerial pins the determinism contract of the
// parallel sweep engine (DESIGN.md §7): each sweep run on the serial
// reference path (Workers = 1) and on an oversubscribed worker pool must
// render byte-identical output — same values, same ordering, down to the
// last ULP of every mean and standard deviation. Fig. 7 shares one graph
// across its x values, so its task list holds one per-graph task per
// seed; every other sweep has one per cell. Both shapes are covered.
func TestSweepParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  func(SimOptions) (Figure, error)
	}{
		{"Fig7", Fig7},
		{"Fig8", Fig8},
		{"Fig9", Fig9},
		{"Fig10", Fig10},
		{"Fig11", Fig11},
		{"Fig9DependencyBound", Fig9DependencyBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := fastSim()
			serial.Workers = 1
			wide := fastSim()
			// Oversubscribe so completion order differs from
			// submission order even on a single-core runner.
			wide.Workers = runtime.GOMAXPROCS(0) + 3

			sFig, err := tc.fig(serial)
			if err != nil {
				t.Fatal(err)
			}
			wFig, err := tc.fig(wide)
			if err != nil {
				t.Fatal(err)
			}
			sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
			if sOut != wOut {
				t.Fatalf("%s diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", tc.name, sOut, wOut)
			}
		})
	}
}

// TestAblationWindowParallelMatchesSerial is the same contract for the
// ablation driver, whose merge path (per-seed rows folded in seed order)
// differs from the figure sweeps'.
func TestAblationWindowParallelMatchesSerial(t *testing.T) {
	serial := fastSim()
	serial.Workers = 1
	wide := fastSim()
	wide.Workers = runtime.GOMAXPROCS(0) + 3

	sFig, err := AblationWindow(serial)
	if err != nil {
		t.Fatal(err)
	}
	wFig, err := AblationWindow(wide)
	if err != nil {
		t.Fatal(err)
	}
	sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
	if sOut != wOut {
		t.Fatalf("AblationWindow diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, wOut)
	}
}

// TestFig12ParallelMatchesSerial extends the DESIGN.md §7 determinism
// contract to the real-system sweep: Fig. 12 cells run on the worker
// pool, and the rendered figure must stay byte-identical to the serial
// reference path.
func TestFig12ParallelMatchesSerial(t *testing.T) {
	sizes := []int{299, 384}
	sFig, err := fig12(Inception, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	wFig, err := fig12(Inception, sizes, runtime.GOMAXPROCS(0)+3)
	if err != nil {
		t.Fatal(err)
	}
	sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
	if sOut != wOut {
		t.Fatalf("Fig12 diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, wOut)
	}
}

// TestFig13ParallelMatchesSerial is the same contract for the scenario
// sweep of Fig. 13. The scenarios include the 2048-pixel builds, so run
// it only with -timeout headroom (it is the heaviest equivalence test).
func TestFig13ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig13 at full scenario sizes is slow; skipped with -short")
	}
	sFig, _, err := fig13(1)
	if err != nil {
		t.Fatal(err)
	}
	wFig, _, err := fig13(runtime.GOMAXPROCS(0) + 3)
	if err != nil {
		t.Fatal(err)
	}
	sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
	if sOut != wOut {
		t.Fatalf("Fig13 diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, wOut)
	}
}
