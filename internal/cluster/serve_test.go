package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/units"
)

// testModel is a hand-built deployment: 4 ms latency, 2 ms admission
// period, two GPUs each busy 1.5 ms per request.
func testModel(replicas int) ServeModel {
	return ServeModel{
		Name:     "m",
		Replicas: replicas,
		Latency:  units.Millis(4),
		Period:   units.Millis(2),
		GPUBusy:  []units.Millis{units.Millis(1.5), units.Millis(1.5)},
	}
}

func mustRun(t *testing.T, opt ServeOptions) *ServeReport {
	t.Helper()
	r, err := Serve(opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestServeValidateErrors(t *testing.T) {
	base := func() ServeOptions {
		return ServeOptions{
			Models:  []ServeModel{testModel(1)},
			Tenants: []Tenant{{Name: "a", Deadline: units.Millis(10), Rate: 50}},
		}
	}
	cases := []struct {
		name string
		mut  func(*ServeOptions)
		want error
	}{
		{"no models", func(o *ServeOptions) { o.Models = nil }, ErrServeNoModels},
		{"no tenants", func(o *ServeOptions) { o.Tenants = nil }, ErrServeNoTenants},
		{"zero latency", func(o *ServeOptions) { o.Models[0].Latency = 0 }, ErrServeBadModel},
		{"zero period", func(o *ServeOptions) { o.Models[0].Period = 0 }, ErrServeBadModel},
		{"period above latency", func(o *ServeOptions) { o.Models[0].Period = units.Millis(9) }, ErrServeBadModel},
		{"negative replicas", func(o *ServeOptions) { o.Models[0].Replicas = -1 }, ErrServeBadModel},
		{"bad model index", func(o *ServeOptions) { o.Tenants[0].Model = 3 }, ErrServeBadTenant},
		{"negative model index", func(o *ServeOptions) { o.Tenants[0].Model = -1 }, ErrServeBadTenant},
		{"zero deadline", func(o *ServeOptions) { o.Tenants[0].Deadline = 0 }, ErrServeBadTenant},
		{"negative rate", func(o *ServeOptions) { o.Tenants[0].Rate = -1 }, ErrServeBadTenant},
		{"neither open nor closed", func(o *ServeOptions) { o.Tenants[0].Rate = 0 }, ErrServeBadTenant},
		{"both open and closed", func(o *ServeOptions) { o.Tenants[0].Clients = 2 }, ErrServeBadTenant},
		{"unknown policy", func(o *ServeOptions) { o.Policy = ServePolicy("lifo") }, ErrServeUnknownPolicy},
		{"negative horizon", func(o *ServeOptions) { o.Horizon = units.Millis(-1) }, ErrServeBadHorizon},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.mut(&o)
			err := o.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is %v", err, tc.want)
			}
			if _, err := Serve(o); !errors.Is(err, tc.want) {
				t.Fatalf("Run rejected with %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base Options invalid: %v", err)
	}
}

// Run must not mutate the caller's Options (fill works on copies).
func TestRunDoesNotMutateOptions(t *testing.T) {
	o := ServeOptions{
		Models:  []ServeModel{{Name: "m", Latency: units.Millis(4), Period: units.Millis(2)}},
		Tenants: []Tenant{{Name: "a", Deadline: units.Millis(10), Rate: 50}},
	}
	mustRun(t, o)
	if o.Models[0].Replicas != 0 || o.Policy != "" || o.Horizon != 0 || o.Seed != 0 {
		t.Fatalf("Run mutated caller Options: %+v", o)
	}
}

func render(t *testing.T, r *ServeReport) string {
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

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, p := range ServePolicies() {
		opt := ServeOptions{
			Models: []ServeModel{testModel(2)},
			Tenants: []Tenant{
				{Name: "open", Deadline: units.Millis(9), Rate: 400},
				{Name: "closed", Deadline: units.Millis(30), Clients: 3, Think: units.Millis(2)},
			},
			Policy:  p,
			Horizon: units.Millis(300),
			Seed:    7,
		}
		a := render(t, mustRun(t, opt))
		b := render(t, mustRun(t, opt))
		if a != b {
			t.Fatalf("policy %s: two runs of identical Options differ", p)
		}
	}
}

// Conservation and well-formedness invariants that must hold for every
// policy and load level.
func TestReportInvariants(t *testing.T) {
	for _, p := range ServePolicies() {
		for _, rate := range []float64{100, 600, 1500} {
			t.Run(fmt.Sprintf("%s/%.0f", p, rate), func(t *testing.T) {
				r := mustRun(t, ServeOptions{
					Models: []ServeModel{testModel(1)},
					Tenants: []Tenant{
						{Name: "a", Deadline: units.Millis(12), Rate: rate},
						{Name: "b", Deadline: units.Millis(40), Clients: 2, Think: units.Millis(5)},
					},
					Policy:         p,
					Horizon:        units.Millis(200),
					Seed:           3,
					RecordRequests: true,
				})
				if r.Offered != r.Completed+r.Shed {
					t.Fatalf("offered %d != completed %d + shed %d", r.Offered, r.Completed, r.Shed)
				}
				if r.SLOMet > r.Completed {
					t.Fatalf("slo-met %d > completed %d", r.SLOMet, r.Completed)
				}
				if p != ServeEDFShed && r.Shed != 0 {
					t.Fatalf("policy %s shed %d requests", p, r.Shed)
				}
				var off, met, shed int
				for _, tr := range r.Tenants {
					off += tr.Offered
					met += tr.SLOMet
					shed += tr.Shed
				}
				if off != r.Offered || met != r.SLOMet || shed != r.Shed {
					t.Fatalf("tenant totals (%d,%d,%d) disagree with report (%d,%d,%d)",
						off, met, shed, r.Offered, r.SLOMet, r.Shed)
				}
				if r.Attainment < 0 || r.Attainment > 1 {
					t.Fatalf("attainment %g out of [0,1]", r.Attainment)
				}
				if r.P50 > r.P95 || r.P95 > r.P99 || r.P99 > r.Max {
					t.Fatalf("percentiles out of order: p50 %v p95 %v p99 %v max %v", r.P50, r.P95, r.P99, r.Max)
				}
				// The drain ends exactly at the last request's finish:
				// every event is an arrival, a completion or a replica
				// free, each at or before some request's finish.
				var last units.Millis
				for _, q := range r.Requests {
					last = max(last, q.Finish)
				}
				if r.Makespan != last { //lint:floatexact both are copies of one event time
					t.Fatalf("makespan %v != last request finish %v", r.Makespan, last)
				}
				prev := units.Millis(-1)
				for _, q := range r.Queue {
					if q.Depth < 0 {
						t.Fatalf("negative queue depth %d", q.Depth)
					}
					if q.T <= prev {
						t.Fatalf("queue timeline not strictly increasing: %v after %v", q.T, prev)
					}
					prev = q.T
				}
				if n := len(r.Queue); n > 0 && r.Queue[n-1].Depth != 0 {
					t.Fatalf("queue did not drain: final depth %d", r.Queue[n-1].Depth)
				}
				for _, g := range r.GPUs {
					if g.Util < 0 || g.Util > 1+1e-9 {
						t.Fatalf("gpu util %g out of range", g.Util)
					}
				}
			})
		}
	}
}

// With a single tenant every request has the same relative deadline, so
// EDF order (deadline, then arrival) collapses to arrival order: FIFO
// and EDF must produce identical reports.
func TestUniformDeadlineEDFEqualsFIFO(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		opt := ServeOptions{
			Models:  []ServeModel{testModel(1)},
			Tenants: []Tenant{{Name: "only", Deadline: units.Millis(15), Rate: 700}},
			Horizon: units.Millis(250),
			Seed:    seed,
		}
		opt.Policy = ServeFIFO
		fifo := render(t, mustRun(t, opt))
		opt.Policy = ServeEDF
		edf := render(t, mustRun(t, opt))
		// The rendered reports differ only in the policy name on the
		// first line; everything after it must be byte-identical.
		cut := func(s string) string {
			for i := range s {
				if s[i] == '\n' {
					return s[i:]
				}
			}
			return s
		}
		if cut(fifo) != cut(edf) {
			t.Fatalf("seed %d: FIFO and EDF diverge on a uniform-deadline trace", seed)
		}
		fr, er := mustRun(t, ServeOptions{Models: opt.Models, Tenants: opt.Tenants, Horizon: opt.Horizon, Seed: seed, Policy: ServeFIFO}), mustRun(t, opt)
		if fr.Makespan != er.Makespan || fr.SLOMet != er.SLOMet { //lint:floatexact
			t.Fatalf("seed %d: FIFO/EDF summary counters diverge", seed)
		}
	}
}

// The issue's property test: on the same seeded open-loop trace, every
// request FIFO meets, EDF meets too. Open-loop arrivals are pre-drawn
// from per-tenant RNGs, so the trace is identical under both policies
// and requests match up by (tenant, index).
func TestEDFDominatesFIFO(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		opt := ServeOptions{
			Models: []ServeModel{testModel(2)},
			Tenants: []Tenant{
				{Name: "tight", Deadline: units.Millis(8), Rate: 350},
				{Name: "loose", Deadline: units.Millis(60), Rate: 350},
			},
			Horizon:        units.Millis(400),
			Seed:           seed,
			RecordRequests: true,
		}
		opt.Policy = ServeFIFO
		fifo := mustRun(t, opt)
		opt.Policy = ServeEDF
		edf := mustRun(t, opt)
		if len(fifo.Requests) != len(edf.Requests) {
			t.Fatalf("seed %d: trace lengths differ (%d vs %d) — open-loop arrivals must be policy-independent",
				seed, len(fifo.Requests), len(edf.Requests))
		}
		type key struct{ tenant, index int }
		met := make(map[key]bool, len(edf.Requests))
		for _, r := range edf.Requests {
			met[key{r.Tenant, r.Index}] = r.Met
		}
		for _, r := range fifo.Requests {
			if r.Met && !met[key{r.Tenant, r.Index}] {
				t.Errorf("seed %d: request t%d/#%d met under FIFO but missed under EDF", seed, r.Tenant, r.Index)
			}
		}
		if edf.SLOMet < fifo.SLOMet {
			t.Errorf("seed %d: EDF met %d < FIFO %d", seed, edf.SLOMet, fifo.SLOMet)
		}
	}
}

// Shedding hopeless requests frees capacity for feasible ones: at
// overload, EDFShed attainment is at least EDF attainment.
func TestShedBeatsEDFAtOverload(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		opt := ServeOptions{
			Models:  []ServeModel{testModel(1)},
			Tenants: []Tenant{{Name: "hot", Deadline: units.Millis(10), Rate: 1200}},
			Horizon: units.Millis(300),
			Seed:    seed,
		}
		opt.Policy = ServeEDF
		edf := mustRun(t, opt)
		opt.Policy = ServeEDFShed
		shed := mustRun(t, opt)
		if shed.Attainment < edf.Attainment {
			t.Errorf("seed %d: shed attainment %g < edf %g", seed, shed.Attainment, edf.Attainment)
		}
		if shed.Shed == 0 {
			t.Errorf("seed %d: overloaded run shed nothing", seed)
		}
		// A shed request must be hopeless: it could not have met its
		// deadline even started the instant it was dropped.
		opt.RecordRequests = true
		rec := mustRun(t, opt)
		for _, r := range rec.Requests {
			if !r.Completed && r.Finish+opt.Models[0].Latency <= r.Deadline {
				t.Fatalf("seed %d: shed request t%d/#%d was still feasible", seed, r.Tenant, r.Index)
			}
		}
	}
}

// A closed-loop tenant keeps at most Clients requests outstanding.
func TestClosedLoopBoundsOutstanding(t *testing.T) {
	const clients = 3
	r := mustRun(t, ServeOptions{
		Models:         []ServeModel{testModel(1)},
		Tenants:        []Tenant{{Name: "cl", Deadline: units.Millis(20), Clients: clients, Think: units.Millis(1)}},
		Horizon:        units.Millis(300),
		Seed:           2,
		RecordRequests: true,
	})
	if r.Offered == 0 {
		t.Fatal("closed-loop tenant issued nothing")
	}
	// Sweep the recorded intervals: outstanding requests never exceed
	// the client count.
	type edge struct {
		at    units.Millis
		delta int
	}
	var edges []edge
	for _, req := range r.Requests {
		edges = append(edges, edge{req.Arrive, 1}, edge{req.Finish, -1})
	}
	// Sort by time, completions before arrivals at the same instant.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j-1], edges[j]
			if b.at < a.at || (b.at == a.at && b.delta < a.delta) { //lint:floatexact
				edges[j-1], edges[j] = b, a
			} else {
				break
			}
		}
	}
	out, peak := 0, 0
	for _, e := range edges {
		out += e.delta
		if out > peak {
			peak = out
		}
	}
	if peak > clients {
		t.Fatalf("closed loop had %d outstanding requests with %d clients", peak, clients)
	}
}

// NewModel wires a real schedule through the pipeline analysis.
func TestNewModelFromSchedule(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps = 60, 8, 120
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := lp.Schedule(g, m, lp.Options{GPUs: 2})
	if err != nil {
		t.Fatalf("lp.Schedule: %v", err)
	}
	dm, err := NewServeModel("lp", g, m, res.Schedule)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if dm.Latency <= 0 || dm.Period <= 0 || dm.Period > dm.Latency {
		t.Fatalf("degenerate model: latency %v period %v", dm.Latency, dm.Period)
	}
	if len(dm.GPUBusy) != 2 {
		t.Fatalf("GPUBusy has %d entries, want 2", len(dm.GPUBusy))
	}
	if dm.Capacity() <= 0 {
		t.Fatalf("capacity %g", dm.Capacity())
	}
	// The deployment must actually serve: a light load meets all SLOs.
	r := mustRun(t, ServeOptions{
		Models:  []ServeModel{dm},
		Tenants: []Tenant{{Name: "t", Deadline: dm.Latency.Scale(4), Rate: dm.Capacity() / 4}},
		Horizon: units.Millis(500),
	})
	if r.Attainment < 0.95 {
		t.Fatalf("lightly loaded deployment attained only %g", r.Attainment)
	}
}

func TestServeModelCapacity(t *testing.T) {
	m := ServeModel{Latency: units.Millis(4), Period: units.Millis(2), Replicas: 3}
	if got := m.Capacity(); got != 1500 {
		t.Fatalf("Capacity() = %g, want 1500", got)
	}
	if got := (ServeModel{}).Capacity(); got != 0 {
		t.Fatalf("zero model Capacity() = %g, want 0", got)
	}
}

// BenchmarkServeEDF is the gated benchmark of the one-node engine: two
// open-loop tenants at 1.25x the capacity of two replicas under EDF.
// Besides ns/op it reports events/op and ns/event, the engine's
// per-unit cost.
func BenchmarkServeEDF(b *testing.B) {
	opt := ServeOptions{
		Models: []ServeModel{testModel(2)},
		Tenants: []Tenant{
			{Name: "tight", Deadline: units.Millis(8), Rate: 500},
			{Name: "loose", Deadline: units.Millis(40), Rate: 500},
		},
		Policy:  ServeEDF,
		Horizon: units.Millis(1000),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Serve(opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	opt.fill()
	e := newServeEngine(opt)
	if _, err := e.run(); err != nil {
		b.Fatal(err)
	}
	reportEventCost(b, e.popped)
}
