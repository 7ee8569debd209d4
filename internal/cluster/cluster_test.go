package cluster

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/units"
)

// serveModel is a synthetic single-node model whose ProfileOf conversion
// matches the a40 row of testDeployment.
func serveModel() ServeModel {
	return ServeModel{Name: "m", Latency: 4, Period: 2, GPUBusy: []units.Millis{1.5, 1.5}}
}

// testDeployment is a synthetic deployment with a profile per preset:
// the a40 twice as fast as the v100s, the a5500 between them, mirroring
// the real platform ordering.
func testDeployment() Deployment {
	return Deployment{
		Name: "m",
		Profiles: []Profile{
			{Platform: "a40", Latency: 4, Period: 2, Busy: 3},
			{Platform: "a5500", Latency: 5, Period: 2.5, Busy: 3.75},
			{Platform: "v100s", Latency: 8, Period: 4, Busy: 6},
		},
	}
}

// testOptions is a small heterogeneous fleet under open-loop load.
func testOptions() Options {
	return Options{
		Fleet: FleetSpec{Nodes: []NodeSpec{
			{Platform: "a40", Count: 2, Replicas: 2},
			{Platform: "v100s", Count: 1, Replicas: 2},
		}},
		Deployments: []Deployment{testDeployment()},
		Tenants: []Tenant{
			{Name: "web", Model: 0, Deadline: 20, Rate: 400},
			{Name: "batch", Model: 0, Deadline: 100, Rate: 200},
		},
		Horizon: 500,
		Seed:    7,
	}
}

func renderString(t *testing.T, r *Report) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if err := r.WriteQueue(&b); err != nil {
		t.Fatalf("WriteQueue: %v", err)
	}
	return b.String()
}

func TestPresets(t *testing.T) {
	keys := PresetKeys()
	if len(keys) != 3 {
		t.Fatalf("PresetKeys() = %v, want 3 presets", keys)
	}
	for _, k := range keys {
		p, ok := PresetByKey(k)
		if !ok || p.Key != k {
			t.Fatalf("PresetByKey(%q) = %+v, %v", k, p, ok)
		}
		if p.Cost <= 0 || p.Platform.GPUs == 0 {
			t.Fatalf("preset %q has cost %g and %d GPUs", k, p.Cost, p.Platform.GPUs)
		}
	}
	if _, ok := PresetByKey("h100"); ok {
		t.Fatal("PresetByKey accepted an unknown key")
	}
}

func TestRouterRegistry(t *testing.T) {
	ps := RouterPolicies()
	if len(ps) != 4 {
		t.Fatalf("RouterPolicies() = %v, want 4", ps)
	}
	for _, p := range ps {
		if !RouterRegistry.Valid(p) {
			t.Fatalf("registry does not validate its own policy %q", p)
		}
		if !strings.Contains(RouterUsage(), string(p)) {
			t.Fatalf("RouterUsage() %q omits %q", RouterUsage(), p)
		}
	}
	if RouterRegistry.Valid("round-robin") {
		t.Fatal("registry validated an unknown policy")
	}
}

func TestValidateErrors(t *testing.T) {
	mut := func(f func(*Options)) Options {
		o := testOptions()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		opt  Options
		want error
	}{
		{"no nodes", mut(func(o *Options) { o.Fleet.Nodes = nil }), ErrNoNodes},
		{"unknown platform", mut(func(o *Options) { o.Fleet.Nodes[0].Platform = "h100" }), ErrUnknownPlatform},
		{"negative count", mut(func(o *Options) { o.Fleet.Nodes[0].Count = -1 }), ErrBadNode},
		{"negative replicas", mut(func(o *Options) { o.Fleet.Nodes[0].Replicas = -2 }), ErrBadNode},
		{"no deployments", mut(func(o *Options) { o.Deployments = nil }), ErrNoDeployments},
		{"bad profile latency", mut(func(o *Options) { o.Deployments[0].Profiles[0].Latency = 0 }), ErrBadDeployment},
		{"period above latency", mut(func(o *Options) { o.Deployments[0].Profiles[0].Period = 9 }), ErrBadDeployment},
		{"negative busy", mut(func(o *Options) { o.Deployments[0].Profiles[0].Busy = -1 }), ErrBadDeployment},
		{"profile for unknown platform", mut(func(o *Options) { o.Deployments[0].Profiles[0].Platform = "h100" }), ErrUnknownPlatform},
		{"missing profile", mut(func(o *Options) { o.Deployments[0].Profiles = o.Deployments[0].Profiles[:1] }), ErrMissingProfile},
		{"no tenants", mut(func(o *Options) { o.Tenants = nil }), ErrNoTenants},
		{"tenant model out of range", mut(func(o *Options) { o.Tenants[0].Model = 3 }), ErrBadTenant},
		{"tenant no deadline", mut(func(o *Options) { o.Tenants[0].Deadline = 0 }), ErrBadTenant},
		{"tenant open and closed", mut(func(o *Options) { o.Tenants[0].Clients = 2 }), ErrBadTenant},
		{"unknown router", mut(func(o *Options) { o.Router = "round-robin" }), ErrUnknownRouterPolicy},
		{"negative admission rate", mut(func(o *Options) { o.Admission.RatePerSec = -1 }), ErrBadAdmission},
		{"negative max queue", mut(func(o *Options) { o.Admission.MaxQueue = -1 }), ErrBadAdmission},
		{"autoscaler bad window", mut(func(o *Options) { o.Autoscaler = AutoscalerOptions{Enabled: true, Window: -1} }), ErrBadAutoscaler},
		{"autoscaler min above max", mut(func(o *Options) { o.Autoscaler = AutoscalerOptions{Enabled: true, MinReplicas: 5, MaxReplicas: 2} }), ErrBadAutoscaler},
		{"autoscaler bad floor", mut(func(o *Options) { o.Autoscaler = AutoscalerOptions{Enabled: true, AttainmentFloor: 1.5} }), ErrBadAutoscaler},
		{"autoscaler low above high", mut(func(o *Options) { o.Autoscaler = AutoscalerOptions{Enabled: true, HighDepth: 1, LowDepth: 2} }), ErrBadAutoscaler},
		{"negative horizon", mut(func(o *Options) { o.Horizon = -1 }), ErrBadHorizon},
	}
	for _, c := range cases {
		if err := c.opt.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.want)
		}
		if _, err := Run(c.opt); !errors.Is(err, c.want) {
			t.Errorf("%s: Run() = %v, want %v", c.name, err, c.want)
		}
	}
	if err := testOptions().Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	// The disabled zero-value autoscaler and empty admission are valid.
	if err := (AutoscalerOptions{}).Validate(); err != nil {
		t.Fatalf("zero autoscaler rejected: %v", err)
	}
	if err := (Admission{}).Validate(); err != nil {
		t.Fatalf("zero admission rejected: %v", err)
	}
}

// TestDeterminism: the same Options render a byte-identical Report, and
// Run never mutates the caller's Options.
func TestDeterminism(t *testing.T) {
	for _, router := range RouterPolicies() {
		opt := testOptions()
		opt.Router = router
		opt.Admission = Admission{RatePerSec: 500, MaxQueue: 64, ShedHopeless: true}
		opt.Autoscaler = AutoscalerOptions{Enabled: true, MaxReplicas: 4}
		r1, err := Run(opt)
		if err != nil {
			t.Fatalf("%s: Run: %v", router, err)
		}
		r2, err := Run(opt)
		if err != nil {
			t.Fatalf("%s: rerun: %v", router, err)
		}
		if a, b := renderString(t, r1), renderString(t, r2); a != b {
			t.Fatalf("%s: reports differ between identical runs:\n%s\n--- vs ---\n%s", router, a, b)
		}
		if opt.Fleet.Nodes[0].Count != 2 || opt.Autoscaler.Interval != 0 {
			t.Fatalf("%s: Run mutated caller's Options", router)
		}
	}
}

// TestSeedSensitivity: different seeds draw different arrival traces.
func TestSeedSensitivity(t *testing.T) {
	a := testOptions()
	b := testOptions()
	b.Seed = 8
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if renderString(t, ra) == renderString(t, rb) {
		t.Fatal("different seeds produced an identical trace")
	}
}

// TestBasicInvariants checks the conservation laws of the report.
func TestBasicInvariants(t *testing.T) {
	opt := testOptions()
	opt.Admission = Admission{RatePerSec: 300, MaxQueue: 32, ShedHopeless: true}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered == 0 {
		t.Fatal("no requests offered")
	}
	if r.Completed+r.Shed != r.Offered {
		t.Fatalf("completed %d + shed %d != offered %d", r.Completed, r.Shed, r.Offered)
	}
	if r.Admitted > r.Offered || r.Completed > r.Admitted {
		t.Fatalf("offered %d, admitted %d, completed %d out of order", r.Offered, r.Admitted, r.Completed)
	}
	if r.SLOMet > r.Completed {
		t.Fatalf("slo-met %d above completed %d", r.SLOMet, r.Completed)
	}
	if r.Events <= int64(r.Offered) {
		t.Fatalf("events %d should exceed offered %d (every request is at least one event)", r.Events, r.Offered)
	}
	if r.CostUnits <= 0 {
		t.Fatal("no replica-time cost accumulated")
	}
	var starts, tenantOffered int
	for _, n := range r.Nodes {
		starts += n.Starts
	}
	if starts != r.Completed {
		t.Fatalf("pool starts %d != completed %d (no hopeless sheds consume a replica)", starts, r.Completed)
	}
	for _, tr := range r.Tenants {
		tenantOffered += tr.Offered
	}
	if tenantOffered != r.Offered {
		t.Fatalf("tenant offered sum %d != offered %d", tenantOffered, r.Offered)
	}
}

// TestAdmissionControl: a tight token bucket sheds most of a heavy load;
// a queue-depth cap bounds the recorded depth timeline.
func TestAdmissionControl(t *testing.T) {
	opt := testOptions()
	opt.Tenants = []Tenant{{Name: "web", Model: 0, Deadline: 20, Rate: 2000}}
	opt.Admission = Admission{RatePerSec: 100, Burst: 4}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatal("token bucket shed nothing under 20x overload")
	}
	// Sustained admission cannot exceed rate*horizon plus the burst.
	budget := int(opt.Admission.RatePerSec*float64(opt.Horizon)/1e3) + opt.Admission.Burst + 1
	if r.Admitted > budget {
		t.Fatalf("admitted %d above token budget %d", r.Admitted, budget)
	}

	opt = testOptions()
	// One replica (500 req/s capacity) under 2000 req/s: the queue cap
	// must bite.
	opt.Fleet = FleetSpec{Nodes: []NodeSpec{{Platform: "a40", Count: 1, Replicas: 1}}}
	opt.Tenants = []Tenant{{Name: "web", Model: 0, Deadline: 20, Rate: 2000}}
	opt.Admission = Admission{MaxQueue: 8}
	r, err = Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatal("queue cap shed nothing under overload")
	}
	for _, p := range r.Queue {
		if p.Depth > 8 {
			t.Fatalf("queue depth %d above cap 8 at t=%g", p.Depth, float64(p.T))
		}
	}
}

// TestRouterDominance: on the same seeded traces at high load, informed
// least-load routing must meet at least as many deadlines as the random
// baseline.
func TestRouterDominance(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := testOptions()
		base.Seed = seed
		base.Tenants = []Tenant{
			{Name: "web", Model: 0, Deadline: 15, Rate: 900},
			{Name: "api", Model: 0, Deadline: 30, Rate: 600},
		}
		ll, rnd := base, base
		ll.Router = RouterLeastLoad
		rnd.Router = RouterRandom
		rl, err := Run(ll)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := Run(rnd)
		if err != nil {
			t.Fatal(err)
		}
		if rl.Offered != rr.Offered {
			t.Fatalf("seed %d: traces diverged: offered %d vs %d", seed, rl.Offered, rr.Offered)
		}
		if rl.SLOMet < rr.SLOMet {
			t.Errorf("seed %d: least-load met %d deadlines, random met %d", seed, rl.SLOMet, rr.SLOMet)
		}
	}
}

// TestAffinityRouting: under light load every tenant's requests land on
// its single preferred node.
func TestAffinityRouting(t *testing.T) {
	opt := testOptions()
	opt.Router = RouterAffinity
	opt.Tenants = []Tenant{{Name: "web", Model: 0, Deadline: 50, Rate: 50}}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, n := range r.Nodes {
		if n.Starts > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("affinity under light load touched %d nodes, want 1", active)
	}
}

// TestWeightedPrefersCheap: with the weighted router and idle pools, a
// request should favor the node whose cost-scaled latency is lowest —
// the v100s (8 ms × 0.45 = 3.6) over the a40 (4 ms × 1.0 = 4.0).
func TestWeightedPrefersCheap(t *testing.T) {
	opt := testOptions()
	opt.Router = RouterWeighted
	opt.Tenants = []Tenant{{Name: "trickle", Model: 0, Deadline: 50, Rate: 20}}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Nodes {
		if n.Platform == "a40" && n.Starts > 0 {
			t.Fatalf("weighted router sent %d trickle requests to the expensive a40", n.Starts)
		}
	}
}

// TestAutoscalerConvergence: under steady offered load the replica count
// must stop moving once the window and cooldown settle, and stay inside
// the configured bounds throughout.
func TestAutoscalerConvergence(t *testing.T) {
	opt := testOptions()
	opt.Fleet = FleetSpec{Nodes: []NodeSpec{{Platform: "a40", Count: 1, Replicas: 1}}}
	// 1200 req/s against 500 req/s per replica: the pool must grow to 3
	// replicas (utilization 0.8), where the time-averaged outstanding
	// depth sits well inside the [LowDepth, HighDepth] hysteresis band —
	// a steady load whose right size is unambiguous.
	opt.Tenants = []Tenant{{Name: "web", Model: 0, Deadline: 30, Rate: 1200}}
	opt.Horizon = 2000
	opt.Autoscaler = AutoscalerOptions{
		Enabled:     true,
		Interval:    10,
		Window:      4,
		Cooldown:    50,
		MaxReplicas: 8,
	}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scales) == 0 {
		t.Fatal("autoscaler never scaled a 1200 req/s load on one replica")
	}
	for _, s := range r.Scales {
		if s.To < 1 || s.To > 8 {
			t.Fatalf("scale target %d outside [1, 8]", s.To)
		}
		if d := s.To - s.From; d != 1 && d != -1 {
			t.Fatalf("scale step %d -> %d is not one replica at a time", s.From, s.To)
		}
	}
	// Convergence: after the last scale event, at least one full
	// window+cooldown of ticks elapsed with no further movement.
	last := r.Scales[len(r.Scales)-1].T
	settle := opt.Horizon - (opt.Autoscaler.Cooldown + opt.Autoscaler.Interval.Scale(float64(opt.Autoscaler.Window)))
	if last > settle {
		t.Fatalf("autoscaler still moving at t=%g of horizon %g", float64(last), float64(opt.Horizon))
	}
	// Steady state serves the load: the single pool ends above 1 replica.
	if r.Nodes[0].Replicas <= 1 {
		t.Fatalf("pool ended at %d replicas under 2.4x overload", r.Nodes[0].Replicas)
	}
	// Consecutive scale events respect the cooldown.
	for i := 1; i < len(r.Scales); i++ {
		if gap := r.Scales[i].T - r.Scales[i-1].T; gap < opt.Autoscaler.Cooldown {
			t.Fatalf("scale events %d and %d only %g ms apart (cooldown %g)", i-1, i, float64(gap), float64(opt.Autoscaler.Cooldown))
		}
	}
}

// TestAutoscalerScaleDown: an over-provisioned pool under a trickle load
// sheds replicas down toward the minimum.
func TestAutoscalerScaleDown(t *testing.T) {
	opt := testOptions()
	opt.Fleet = FleetSpec{Nodes: []NodeSpec{{Platform: "a40", Count: 1, Replicas: 6}}}
	opt.Tenants = []Tenant{{Name: "web", Model: 0, Deadline: 50, Rate: 50}}
	opt.Horizon = 2000
	opt.Autoscaler = AutoscalerOptions{Enabled: true, Interval: 10, Window: 4, Cooldown: 50}
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes[0].Replicas; got >= 6 {
		t.Fatalf("idle pool still holds %d replicas", got)
	}
	if r.Attainment < 0.99 {
		t.Fatalf("scale-down hurt attainment: %g", r.Attainment)
	}
}

// TestCapacity sanity-checks the fleet capacity helper.
func TestCapacity(t *testing.T) {
	opt := testOptions()
	// 2 a40 nodes x 2 replicas / 2ms + 1 v100s x 2 replicas / 4ms
	want := 2*2*1e3/2 + 1*2*1e3/4
	if got := opt.Capacity(0); got != want {
		t.Fatalf("Capacity(0) = %g, want %g", got, want)
	}
	if got := opt.Capacity(1); got != 0 {
		t.Fatalf("Capacity(1) = %g, want 0", got)
	}
}

// TestProfileOf converts a ServeModel into a platform profile.
func TestProfileOf(t *testing.T) {
	p := ProfileOf("a40", serveModel())
	if p.Platform != "a40" || p.Latency != 4 || p.Period != 2 || p.Busy != 3 {
		t.Fatalf("ProfileOf = %+v", p)
	}
}

// TestValidateRejectsNonFinite feeds NaN, +Inf and -Inf to every float
// field Options.Validate and ServeOptions.Validate read. Each must be
// rejected with the field's sentinel: NaN slips past the range checks,
// and an infinite rate or horizon never ends the arrival pre-draw. Only
// Validate runs, so an accepted value fails here instead of hanging Run.
func TestValidateRejectsNonFinite(t *testing.T) {
	scaler := func(o *Options) *AutoscalerOptions {
		o.Autoscaler.Enabled = true
		return &o.Autoscaler
	}
	fields := []struct {
		name string
		set  func(*Options, float64)
		want error
	}{
		{"tenant rate", func(o *Options, v float64) { o.Tenants[0].Rate = v }, ErrBadTenant},
		{"tenant deadline", func(o *Options, v float64) { o.Tenants[0].Deadline = units.Millis(v) }, ErrBadTenant},
		{"tenant think", func(o *Options, v float64) {
			o.Tenants[0].Rate, o.Tenants[0].Clients, o.Tenants[0].Think = 0, 2, units.Millis(v)
		}, ErrBadTenant},
		{"profile latency", func(o *Options, v float64) { o.Deployments[0].Profiles[0].Latency = units.Millis(v) }, ErrBadDeployment},
		{"profile period", func(o *Options, v float64) { o.Deployments[0].Profiles[0].Period = units.Millis(v) }, ErrBadDeployment},
		{"profile busy", func(o *Options, v float64) { o.Deployments[0].Profiles[0].Busy = units.Millis(v) }, ErrBadDeployment},
		{"admission rate", func(o *Options, v float64) { o.Admission.RatePerSec = v }, ErrBadAdmission},
		{"horizon", func(o *Options, v float64) { o.Horizon = units.Millis(v) }, ErrBadHorizon},
		{"autoscaler interval", func(o *Options, v float64) { scaler(o).Interval = units.Millis(v) }, ErrBadAutoscaler},
		{"autoscaler cooldown", func(o *Options, v float64) { scaler(o).Cooldown = units.Millis(v) }, ErrBadAutoscaler},
		{"autoscaler high depth", func(o *Options, v float64) { scaler(o).HighDepth = v }, ErrBadAutoscaler},
		{"autoscaler low depth", func(o *Options, v float64) { scaler(o).LowDepth = v }, ErrBadAutoscaler},
		{"autoscaler attainment floor", func(o *Options, v float64) { scaler(o).AttainmentFloor = v }, ErrBadAutoscaler},
	}
	serveFields := []struct {
		name string
		set  func(*ServeOptions, float64)
		want error
	}{
		{"tenant rate", func(o *ServeOptions, v float64) { o.Tenants[0].Rate = v }, ErrServeBadTenant},
		{"tenant deadline", func(o *ServeOptions, v float64) { o.Tenants[0].Deadline = units.Millis(v) }, ErrServeBadTenant},
		{"tenant think", func(o *ServeOptions, v float64) {
			o.Tenants[0].Rate, o.Tenants[0].Clients, o.Tenants[0].Think = 0, 2, units.Millis(v)
		}, ErrServeBadTenant},
		{"model latency", func(o *ServeOptions, v float64) { o.Models[0].Latency = units.Millis(v) }, ErrServeBadModel},
		{"model period", func(o *ServeOptions, v float64) { o.Models[0].Period = units.Millis(v) }, ErrServeBadModel},
		{"horizon", func(o *ServeOptions, v float64) { o.Horizon = units.Millis(v) }, ErrServeBadHorizon},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range fields {
			o := testOptions()
			f.set(&o, v)
			if err := o.Validate(); !errors.Is(err, f.want) {
				t.Errorf("cluster %s = %g: Validate() = %v, want %v", f.name, v, err, f.want)
			}
		}
		for _, f := range serveFields {
			o := ServeOptions{
				Models:  []ServeModel{serveModel()},
				Tenants: []Tenant{{Name: "a", Deadline: 10, Rate: 50}},
			}
			f.set(&o, v)
			if err := o.Validate(); !errors.Is(err, f.want) {
				t.Errorf("serve %s = %g: Validate() = %v, want %v", f.name, v, err, f.want)
			}
		}
	}
}
