package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/units"
)

// fastServe is the sweep configuration the serving tests pin: a smaller
// random model keeps the IOS DP fast while preserving the qualitative
// shape (verified against the full 200-operator default).
func fastServe() ServeSweepOptions {
	return ServeSweepOptions{Ops: 80, Seeds: 8}
}

// TestAttainmentVsLoadShape pins the acceptance shape of the serving
// sweep: SLO attainment is monotonically non-increasing in offered load
// for every scheduler × policy series, and at the highest load point EDF
// attains at least FIFO and shedding at least EDF, for every scheduler.
func TestAttainmentVsLoadShape(t *testing.T) {
	fig, err := AttainmentVsLoad(fastServe())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(RealSystemAlgorithms)*3 {
		t.Fatalf("series count %d, want %d", len(fig.Series), len(RealSystemAlgorithms)*3)
	}
	for _, s := range fig.Series {
		for i, p := range s.Points {
			if p.Mean < 0 || p.Mean > 1 {
				t.Errorf("%s: attainment %g at x=%g out of [0,1]", s.Label, p.Mean, p.X)
			}
			if i > 0 && p.Mean > s.Points[i-1].Mean+1e-12 {
				t.Errorf("%s: attainment rises with load: %g -> %g at x=%g",
					s.Label, s.Points[i-1].Mean, p.Mean, p.X)
			}
		}
	}
	top := fig.Series[0].Points[len(fig.Series[0].Points)-1].X
	at := func(label string) float64 {
		v, ok := fig.At(label, top)
		if !ok {
			t.Fatalf("series %s missing x=%g", label, top)
		}
		return v
	}
	for _, algo := range RealSystemAlgorithms {
		fifo, edf, shed := at(algo+"/fifo"), at(algo+"/edf"), at(algo+"/edf-shed")
		if edf < fifo {
			t.Errorf("%s: EDF attainment %g < FIFO %g at load %g", algo, edf, fifo, top)
		}
		if shed < edf {
			t.Errorf("%s: shed attainment %g < EDF %g at load %g", algo, shed, edf, top)
		}
	}
	// The sweep's premise: a better scheduler serves more of the same
	// load. HIOS-LP must beat sequential under FIFO at the top point.
	if at("hios-lp/fifo") <= at("sequential/fifo") {
		t.Errorf("hios-lp attainment %g not above sequential %g at load %g",
			at("hios-lp/fifo"), at("sequential/fifo"), top)
	}
}

// TestAttainmentVsLoadParallelMatchesSerial extends the DESIGN.md §7
// determinism contract to the serving sweep: serial reference and
// oversubscribed pool render byte-identical figures.
func TestAttainmentVsLoadParallelMatchesSerial(t *testing.T) {
	serial := fastServe()
	serial.Workers = 1
	wide := fastServe()
	wide.Workers = runtime.GOMAXPROCS(0) + 3

	sFig, err := AttainmentVsLoad(serial)
	if err != nil {
		t.Fatal(err)
	}
	wFig, err := AttainmentVsLoad(wide)
	if err != nil {
		t.Fatal(err)
	}
	sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
	if sOut != wOut {
		t.Fatalf("AttainmentVsLoad diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, wOut)
	}
	// And across repeated runs of the same width.
	rFig, err := AttainmentVsLoad(wide)
	if err != nil {
		t.Fatal(err)
	}
	if renderBoth(t, rFig) != wOut {
		t.Fatal("AttainmentVsLoad diverges across repeated runs")
	}
}

func TestServeSweepOptionsValidate(t *testing.T) {
	bad := []ServeSweepOptions{
		{Seeds: -1},
		{GPUs: -2},
		{GPUBudget: -1},
		{Window: -1},
		{Workers: -3},
		{Ops: -10},
		{Horizon: -5},
		{Horizon: units.Millis(math.NaN())},
		{Horizon: units.Millis(math.Inf(1))},
		{Loads: []float64{0.5, 0}},
		{Loads: []float64{-1}},
		{Loads: []float64{math.NaN()}},
		{Loads: []float64{math.Inf(1)}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, o)
		}
		if _, err := AttainmentVsLoad(o); err == nil {
			t.Errorf("case %d: AttainmentVsLoad accepted %+v", i, o)
		}
	}
	if err := (ServeSweepOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

// The figure labels must enumerate scheduler × policy in declaration
// order, the order EXPERIMENTS.md documents.
func TestAttainmentVsLoadLabels(t *testing.T) {
	fig, err := AttainmentVsLoad(ServeSweepOptions{Ops: 40, Seeds: 2, Loads: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{}
	for _, a := range RealSystemAlgorithms {
		for _, p := range []string{"fifo", "edf", "edf-shed"} {
			want = append(want, a+"/"+p)
		}
	}
	got := fig.Labels()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("labels = %v, want %v", got, want)
	}
}

// The serve-sweep benchmark pair mirrors BenchmarkSweepFig10*: the
// Width1/FullWidth ratio gauges the parallel engine's efficiency on the
// serving workload (BENCH_ledger.json tracks the baseline).
func benchServeSweep(b *testing.B, workers int) {
	b.Helper()
	opt := ServeSweepOptions{Ops: 60, Seeds: 2, Workers: workers, Loads: []float64{0.5, 1.0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttainmentVsLoad(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeSweepWidth1(b *testing.B)    { benchServeSweep(b, 1) }
func BenchmarkServeSweepFullWidth(b *testing.B) { benchServeSweep(b, 0) }
