package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/units"
)

// fastFleet is the sweep configuration the cluster tests pin: a small
// input size keeps the per-platform schedule construction fast and a
// shrunk request count keeps each cell cheap, while preserving the
// qualitative shape.
func fastFleet() FleetSweepOptions {
	return FleetSweepOptions{
		Seeds:     2,
		Sizes:     []int{2, 4},
		Requests:  4000,
		InputSize: 64,
	}
}

// TestAttainmentVsFleetShape pins the acceptance shape of the cluster
// sweep: attainment stays in [0, 1] for every router, and at every
// fleet size the informed least-load router attains at least the random
// baseline (the router-dominance property on shared seeded traces).
func TestAttainmentVsFleetShape(t *testing.T) {
	fig, err := AttainmentVsFleet(fastFleet())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(cluster.RouterPolicies()) {
		t.Fatalf("series count %d, want %d", len(fig.Series), len(cluster.RouterPolicies()))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean < 0 || p.Mean > 1 {
				t.Errorf("%s: attainment %g at x=%g out of [0,1]", s.Label, p.Mean, p.X)
			}
		}
	}
	for _, size := range fastFleet().Sizes {
		x := float64(size)
		ll, ok := fig.At(string(cluster.RouterLeastLoad), x)
		if !ok {
			t.Fatalf("least-load series missing x=%g", x)
		}
		rnd, ok := fig.At(string(cluster.RouterRandom), x)
		if !ok {
			t.Fatalf("random series missing x=%g", x)
		}
		if ll+1e-12 < rnd {
			t.Errorf("size %d: least-load attainment %g below random %g", size, ll, rnd)
		}
	}
}

// TestAttainmentVsFleetParallelMatchesSerial extends the DESIGN.md §7
// determinism contract to the cluster sweep: serial reference and
// oversubscribed pool render byte-identical Serve2 figures.
func TestAttainmentVsFleetParallelMatchesSerial(t *testing.T) {
	serial := fastFleet()
	serial.Workers = 1
	wide := fastFleet()
	wide.Workers = runtime.GOMAXPROCS(0) + 3

	sFig, err := AttainmentVsFleet(serial)
	if err != nil {
		t.Fatal(err)
	}
	wFig, err := AttainmentVsFleet(wide)
	if err != nil {
		t.Fatal(err)
	}
	sOut, wOut := renderBoth(t, sFig), renderBoth(t, wFig)
	if sOut != wOut {
		t.Fatalf("AttainmentVsFleet diverges between serial and parallel sweeps:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, wOut)
	}
	// And across repeated runs of the same width.
	rFig, err := AttainmentVsFleet(wide)
	if err != nil {
		t.Fatal(err)
	}
	if renderBoth(t, rFig) != wOut {
		t.Fatal("AttainmentVsFleet diverges across repeated runs")
	}
}

func TestFleetSweepOptionsValidate(t *testing.T) {
	bad := []FleetSweepOptions{
		{Seeds: -1},
		{Requests: -1},
		{Load: -0.5},
		{Load: math.NaN()},
		{Load: math.Inf(1)},
		{Replicas: -1},
		{GPUs: -2},
		{Window: -1},
		{InputSize: -64},
		{Workers: -3},
		{Sizes: []int{4, 0}},
		{Routers: []cluster.RouterPolicy{"round-robin"}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, o)
		}
		if _, err := AttainmentVsFleet(o); err == nil {
			t.Errorf("case %d: AttainmentVsFleet accepted %+v", i, o)
		}
	}
	if err := (FleetSweepOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

// The figure labels must enumerate the router registry in declaration
// order, the order EXPERIMENTS.md documents.
func TestAttainmentVsFleetLabels(t *testing.T) {
	opt := fastFleet()
	opt.Seeds = 1
	opt.Sizes = []int{2}
	fig, err := AttainmentVsFleet(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{}
	for _, r := range cluster.RouterPolicies() {
		want = append(want, string(r))
	}
	got := fig.Labels()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("labels = %v, want %v", got, want)
	}
}

// TestServe2EventFloor verifies the headline experiment's scale claim
// arithmetically and empirically: at the default request count a single
// Serve2 cell processes at least 1e6 simulation events. The cell is run
// directly through cluster.Run with the sweep's own fleet shape so the
// test doesn't pay for per-platform schedule construction.
func TestServe2EventFloor(t *testing.T) {
	def := FleetSweepOptions{}
	def.fill()
	opt := cluster.Options{
		Fleet: fleetSpec(def.Sizes[0], def.Replicas),
		Deployments: []cluster.Deployment{{Name: "m", Profiles: []cluster.Profile{
			{Platform: "a40", Latency: 4, Period: 2, Busy: 3},
			{Platform: "a5500", Latency: 5, Period: 2.5, Busy: 3.75},
			{Platform: "v100s", Latency: 8, Period: 4, Busy: 6},
		}}},
		Seed: 1,
	}
	rate := def.Load * opt.Capacity(0)
	opt.Horizon = units.Millis(float64(def.Requests) * 1e3 / rate)
	opt.Tenants = []cluster.Tenant{
		{Name: "interactive", Deadline: 16, Rate: 0.6 * rate},
		{Name: "batch", Deadline: 48, Rate: 0.4 * rate},
	}
	r, err := cluster.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events < 1_000_000 {
		t.Fatalf("default Serve2 cell processed %d events, want >= 1e6", r.Events)
	}
	if r.Events != int64(3*r.Admitted) {
		t.Fatalf("events %d != 3 x admitted %d (the documented per-request event count)", r.Events, r.Admitted)
	}
}

// The fleet-sweep benchmark pair mirrors BenchmarkServeSweep*: the
// Width1/FullWidth ratio gauges the parallel engine's efficiency on the
// cluster workload (BENCH_ledger.json tracks the baseline).
func benchFleetSweep(b *testing.B, workers int) {
	b.Helper()
	opt := fastFleet()
	opt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttainmentVsFleet(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServe2Width1(b *testing.B)    { benchFleetSweep(b, 1) }
func BenchmarkServe2FullWidth(b *testing.B) { benchFleetSweep(b, 0) }
