package cluster

import (
	"errors"
	"fmt"
	"io"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/pipeline"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// ServePolicy selects the dispatch discipline of the serving queue.
type ServePolicy string

const (
	// ServeFIFO serves requests strictly in arrival order.
	ServeFIFO ServePolicy = "fifo"
	// ServeEDF serves the queued request with the earliest absolute
	// deadline first (ties broken by arrival order).
	ServeEDF ServePolicy = "edf"
	// ServeEDFShed is EDF with shed-on-hopeless admission control: a
	// request is dropped at dispatch time when even an immediate start
	// provably misses its deadline (now + L > arrival + deadline), so
	// capacity is never spent on a certain miss.
	ServeEDFShed ServePolicy = "edf-shed"
)

// ServeRegistry enumerates the dispatch policies. ServePolicies,
// ServeOptions.Validate and the CLI usage text all read from here.
var ServeRegistry = PolicyRegistry[ServePolicy]{
	{ServeFIFO, "strict arrival order"},
	{ServeEDF, "earliest absolute deadline first"},
	{ServeEDFShed, "EDF plus shed-on-hopeless admission control"},
}

// ServePolicies lists every implemented dispatch policy, enumerated from
// ServeRegistry.
func ServePolicies() []ServePolicy { return ServeRegistry.Policies() }

// ServePolicyUsage renders the dispatch policies as a flag usage string.
func ServePolicyUsage() string { return ServeRegistry.Usage() }

// Sentinel errors of ServeOptions.Validate, all errors.Is-matchable.
var (
	// ErrServeNoModels reports a ServeOptions with an empty Models list.
	ErrServeNoModels = errors.New("serve: no models deployed")
	// ErrServeNoTenants reports a ServeOptions with an empty Tenants
	// list.
	ErrServeNoTenants = errors.New("serve: no tenants")
	// ErrServeUnknownPolicy reports an unrecognized ServePolicy value.
	ErrServeUnknownPolicy = errors.New("serve: unknown policy")
	// ErrServeBadModel reports a ServeModel with nonpositive latency or
	// period, a period exceeding its latency, or a negative replica
	// count.
	ErrServeBadModel = errors.New("serve: bad model")
	// ErrServeBadTenant reports a Tenant with an out-of-range model
	// index, a nonpositive deadline, or an arrival process that is
	// neither purely open-loop (Rate > 0) nor purely closed-loop
	// (Clients > 0).
	ErrServeBadTenant = errors.New("serve: bad tenant")
	// ErrServeBadHorizon reports a negative arrival horizon.
	ErrServeBadHorizon = errors.New("serve: bad horizon")
)

// ServeModel is one deployed model: a set of identical pipeline
// replicas, each executing the same multi-GPU schedule. Latency and
// Period come from the pipeline analysis of that schedule
// (NewServeModel); GPUBusy is the per-GPU busy time one request adds to a
// replica, used for utilization accounting.
type ServeModel struct {
	// Name labels the deployment in reports.
	Name string
	// Replicas is the number of identical pipeline replicas. Zero
	// selects 1.
	Replicas int
	// Latency is the single-request completion time on an idle replica.
	Latency units.Millis
	// Period is the steady-state admission interval: a replica accepts
	// a new request every Period while earlier ones drain through its
	// pipeline. Period <= Latency; equality means no pipelining.
	Period units.Millis
	// GPUBusy is the busy time one request adds to each of a replica's
	// GPUs (may be empty when utilization accounting is not needed).
	GPUBusy []units.Millis
}

// NewServeModel derives a deployment model from a schedule: Latency and
// Period from the pipeline unrolling analysis (8 back-to-back requests,
// enough for the period to settle), GPUBusy from the evaluated timing.
// Replicas starts at 1; callers scale it to their GPU budget.
func NewServeModel(name string, g *graph.Graph, m cost.Model, s *sched.Schedule) (ServeModel, error) {
	rep, err := pipeline.Analyze(g, m, s, 8)
	if err != nil {
		return ServeModel{}, fmt.Errorf("serve: %w", err)
	}
	tm, err := sched.Evaluate(g, m, s)
	if err != nil {
		return ServeModel{}, fmt.Errorf("serve: %w", err)
	}
	busy := make([]units.Millis, len(s.GPUs))
	for gi := range s.GPUs {
		for j := range s.GPUs[gi].Stages {
			busy[gi] += tm.StageFinish[gi][j] - tm.StageStart[gi][j]
		}
	}
	period := rep.SteadyPeriodMs
	if period <= 0 || period > rep.LatencyMs {
		period = rep.LatencyMs
	}
	return ServeModel{
		Name:     name,
		Replicas: 1,
		Latency:  rep.LatencyMs,
		Period:   period,
		GPUBusy:  busy,
	}, nil
}

// Capacity returns the deployment's maximum sustainable throughput in
// requests per second: Replicas admissions every Period.
func (m ServeModel) Capacity() float64 {
	if m.Period <= 0 {
		return 0
	}
	r := m.Replicas
	if r <= 0 {
		r = 1
	}
	return float64(r) * 1e3 / float64(m.Period)
}

// ServeOptions configures one single-node serving simulation. The zero
// value of every optional field selects a documented default; Validate
// reports structurally invalid configurations with errors.Is-matchable
// sentinels.
type ServeOptions struct {
	// Models lists the deployed models. Required.
	Models []ServeModel
	// Tenants lists the request classes; Tenant.Model indexes Models.
	// Required.
	Tenants []Tenant
	// Policy is the dispatch discipline. Empty selects ServeFIFO.
	Policy ServePolicy
	// Horizon is the arrival window: no request arrives at or after
	// this time, and the simulation then runs until every admitted
	// request drains. Zero selects 1000 ms.
	Horizon units.Millis
	// Seed seeds the arrival processes. Zero selects 1.
	Seed int64
	// RecordRequests additionally populates ServeReport.Requests with
	// every request's individual fate (tests and debugging; off by
	// default because it grows with the request count).
	RecordRequests bool
}

// fill normalizes the defaulted fields on a private copy. The Models
// slice is copied before replica defaulting so the caller's values are
// never mutated.
func (o *ServeOptions) fill() {
	if o.Policy == "" {
		o.Policy = ServeFIFO
	}
	// Validate already rejected negatives, so <= 0 means "unset".
	if o.Horizon <= 0 {
		o.Horizon = units.Millis(1000)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	models := make([]ServeModel, len(o.Models))
	copy(models, o.Models)
	for i := range models {
		if models[i].Replicas == 0 {
			models[i].Replicas = 1
		}
	}
	o.Models = models
}

// Validate checks the configuration, returning the first violation
// wrapped around one of the ErrServe sentinels. Zero values with
// documented defaults (Policy, Horizon, Seed, ServeModel.Replicas) are
// valid.
func (o ServeOptions) Validate() error {
	if len(o.Models) == 0 {
		return ErrServeNoModels
	}
	for i, m := range o.Models {
		if !finite(float64(m.Latency), float64(m.Period)) {
			return fmt.Errorf("%w: model %d (%s) has a non-finite latency or period", ErrServeBadModel, i, m.Name)
		}
		if m.Latency <= 0 || m.Period <= 0 {
			return fmt.Errorf("%w: model %d (%s) needs positive latency and period", ErrServeBadModel, i, m.Name)
		}
		if m.Period > m.Latency {
			return fmt.Errorf("%w: model %d (%s) period %g exceeds latency %g", ErrServeBadModel, i, m.Name, float64(m.Period), float64(m.Latency))
		}
		if m.Replicas < 0 {
			return fmt.Errorf("%w: model %d (%s) has negative replica count %d", ErrServeBadModel, i, m.Name, m.Replicas)
		}
	}
	if len(o.Tenants) == 0 {
		return ErrServeNoTenants
	}
	if err := validateTenants(o.Tenants, len(o.Models), "model", ErrServeBadTenant); err != nil {
		return err
	}
	if o.Policy != "" && !ServeRegistry.Valid(o.Policy) {
		return fmt.Errorf("%w %q (want one of %v)", ErrServeUnknownPolicy, string(o.Policy), ServePolicies())
	}
	if !finite(float64(o.Horizon)) || o.Horizon < 0 {
		return fmt.Errorf("%w: %g ms", ErrServeBadHorizon, float64(o.Horizon))
	}
	return nil
}

// Serve simulates the single-node deployment described by opt and
// returns its serving report. It runs the cluster engine on one node
// holding one pool per model, with least-load routing (which on one node
// always picks it), no gateway limits, no autoscaler, and hopeless
// shedding iff the policy is ServeEDFShed. The same ServeOptions always
// produce the same ServeReport.
func Serve(opt ServeOptions) (*ServeReport, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	e := newServeEngine(opt)
	makespan, err := e.run()
	if err != nil {
		return nil, err
	}
	return e.serveReport(opt, makespan), nil
}

// newServeEngine seeds the one-node engine of the filled options.
func newServeEngine(opt ServeOptions) *engine {
	nd := node{pools: make([]pool, len(opt.Models))}
	for mi, m := range opt.Models {
		nd.pools[mi] = newPool(Profile{Latency: m.Latency, Period: m.Period}, m.Replicas, opt.Policy == ServeFIFO, nil)
	}
	return newEngine(Options{
		Tenants:   opt.Tenants,
		Router:    RouterLeastLoad,
		Admission: Admission{ShedHopeless: opt.Policy == ServeEDFShed},
		Horizon:   opt.Horizon,
		Seed:      opt.Seed,
	}, []node{nd})
}

// ServeReport summarizes one single-node serving simulation: SLO
// attainment, goodput, tail latency, per-tenant breakdown, per-GPU
// utilization and the queue-depth timeline. All slices are in
// deterministic order.
type ServeReport struct {
	// Policy is the dispatch discipline that produced this report.
	Policy ServePolicy
	// Horizon is the (filled) arrival window; Makespan is when the last
	// event fired — the drain time of everything admitted before the
	// horizon.
	Horizon  units.Millis
	Makespan units.Millis
	// Offered counts every request that arrived; Completed the ones
	// that ran to completion; SLOMet the completions within deadline;
	// Shed the ones dropped by admission control.
	Offered   int
	Completed int
	SLOMet    int
	Shed      int
	// Attainment is SLOMet/Offered (1 when nothing was offered):
	// the fraction of offered load served within its SLO.
	Attainment float64
	// GoodputPerSec is deadline-meeting completions per second of
	// makespan.
	GoodputPerSec float64
	// P50/P95/P99/Max summarize the response-time distribution
	// (arrival to completion) over completed requests.
	P50, P95, P99, Max units.Millis
	// Tenants breaks the same counters down per tenant, in ServeOptions
	// order.
	Tenants []TenantReport
	// GPUs reports utilization per (model, replica, GPU), in model
	// order then replica order then GPU order.
	GPUs []ServeGPUUtil
	// Queue is the total queued-request depth over time: one point per
	// instant the depth changed.
	Queue []QueuePoint
	// Requests holds every request's fate when
	// ServeOptions.RecordRequests was set (in global arrival-event
	// order), nil otherwise.
	Requests []ServeRequestOutcome
}

// ServeGPUUtil is the utilization of one GPU of one pipeline replica.
type ServeGPUUtil struct {
	// Model names the deployment; Replica and GPU index within it.
	Model   string
	Replica int
	GPU     int
	// Starts is how many requests this replica admitted; Busy the total
	// busy time this GPU accumulated across them; Util is Busy over the
	// report makespan.
	Starts int
	Busy   units.Millis
	Util   float64
}

// ServeRequestOutcome is one request's fate, recorded when
// ServeOptions.RecordRequests is set.
type ServeRequestOutcome struct {
	// Tenant and Index identify the request (Index is the tenant's
	// issue order).
	Tenant int
	Index  int
	// Arrive and Deadline are absolute times; Finish is completion (or
	// shed) time.
	Arrive   units.Millis
	Deadline units.Millis
	Finish   units.Millis
	// Completed is false for shed requests; Met reports Finish <=
	// Deadline for completed ones.
	Completed bool
	Met       bool
}

// serveReport assembles the ServeReport from the drained one-node
// engine: the shared tally plus per-GPU utilization, read from each
// model's GPUBusy, and the recorded request outcomes.
func (e *engine) serveReport(opt ServeOptions, makespan units.Millis) *ServeReport {
	t := e.tally(makespan)
	r := &ServeReport{
		Policy:        opt.Policy,
		Horizon:       opt.Horizon,
		Makespan:      makespan,
		Offered:       t.offered,
		Completed:     t.completed,
		SLOMet:        t.met,
		Shed:          t.shed,
		Attainment:    t.attainment,
		GoodputPerSec: t.goodput,
		P50:           t.p50,
		P95:           t.p95,
		P99:           t.p99,
		Max:           t.max,
		Tenants:       t.tenants,
		Queue:         e.points,
	}
	if opt.RecordRequests {
		for i := range e.reqs {
			req := &e.reqs[i]
			done := req.state == stDone
			r.Requests = append(r.Requests, ServeRequestOutcome{
				Tenant:    req.tenant,
				Index:     req.index,
				Arrive:    req.arrive,
				Deadline:  req.deadline,
				Finish:    req.finish,
				Completed: done,
				Met:       done && req.finish <= req.deadline,
			})
		}
	}
	for mi := range opt.Models {
		m := &opt.Models[mi]
		for rep, starts := range e.nodes[0].pools[mi].starts {
			for g := range m.GPUBusy {
				busy := m.GPUBusy[g].Scale(float64(starts))
				util := 0.0
				if makespan > 0 {
					util = busy.Ratio(makespan)
				}
				r.GPUs = append(r.GPUs, ServeGPUUtil{
					Model:   m.Name,
					Replica: rep,
					GPU:     g,
					Starts:  starts,
					Busy:    busy,
					Util:    util,
				})
			}
		}
	}
	return r
}

// Render writes a human-readable summary. The output is deterministic
// for a given ServeReport.
func (r *ServeReport) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("policy %s  horizon %.2f ms  makespan %.2f ms\n",
		r.Policy, float64(r.Horizon), float64(r.Makespan))
	p.printf("offered %d  completed %d  slo-met %d  shed %d  attainment %.4f  goodput %.2f req/s\n",
		r.Offered, r.Completed, r.SLOMet, r.Shed, r.Attainment, r.GoodputPerSec)
	p.latencyAndTenants(r.P50, r.P95, r.P99, r.Max, r.Tenants)
	for _, g := range r.GPUs {
		p.printf("gpu %s/r%d/g%d  starts %4d  busy %.2f ms  util %.3f\n",
			g.Model, g.Replica, g.GPU, g.Starts, float64(g.Busy), g.Util)
	}
	return p.err
}

// WriteQueue streams the queue-depth timeline as two-column CSV
// (time_ms,depth), suitable for plotting.
func (r *ServeReport) WriteQueue(w io.Writer) error { return writeQueue(w, r.Queue) }
