package cluster

import (
	"fmt"
	"io"
	"sort"

	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// TenantReport is one tenant's slice of a serving report.
type TenantReport struct {
	Name          string
	Model         int
	Offered       int
	Completed     int
	SLOMet        int
	Shed          int
	Attainment    float64
	P50, P95, P99 units.Millis
}

// QueuePoint is one step of the queue-depth timeline.
type QueuePoint struct {
	T     units.Millis
	Depth int
}

// Report summarizes one cluster simulation: SLO attainment, goodput,
// tail latency, per-tenant and per-pool breakdowns, the scaling
// timeline, and replica-time cost. All slices are in deterministic
// order, so the same Options always render a byte-identical Report.
type Report struct {
	// Router is the routing policy that produced this report.
	Router RouterPolicy
	// Horizon is the (filled) arrival window; Makespan is when the last
	// event fired.
	Horizon  units.Millis
	Makespan units.Millis
	// Offered counts every request that arrived at the gateway; Admitted
	// the ones admission control let through; Completed the ones that ran
	// to completion; SLOMet the completions within deadline; Shed the
	// gateway drops plus the hopeless dispatch-time drops.
	Offered   int
	Admitted  int
	Completed int
	SLOMet    int
	Shed      int
	// Attainment is SLOMet/Offered (1 when nothing was offered).
	Attainment float64
	// GoodputPerSec is deadline-meeting completions per second of
	// makespan.
	GoodputPerSec float64
	// P50/P95/P99/Max summarize the response-time distribution over
	// completed requests.
	P50, P95, P99, Max units.Millis
	// Events is the number of simulation events processed — the figure
	// sweeps assert their per-cell event floor against it.
	Events int64
	// CostUnits is the fleet's replica-time cost: for every pool,
	// replica-seconds integrated over the run times the platform's
	// relative cost rate, summed.
	CostUnits float64
	// Tenants breaks the counters down per tenant, in Options order.
	Tenants []TenantReport
	// Nodes reports each (node, deployment) pool, in node order then
	// deployment order.
	Nodes []NodeReport
	// Scales is the autoscaler's decision timeline, in event order.
	Scales []ScaleEvent
	// Queue is the cluster-wide queued-request depth over time.
	Queue []QueuePoint
}

// NodeReport is one (node, deployment) replica pool's slice of the
// cluster report.
type NodeReport struct {
	// Node is the flattened node index; Platform its preset key;
	// Deployment the served model's name.
	Node       int
	Platform   string
	Deployment string
	// Starts is how many requests the pool admitted; Replicas its final
	// live count; Peak the highest live count reached.
	Starts   int
	Replicas int
	Peak     int
	// Busy is the total GPU busy time the pool's starts induced; Util is
	// Busy over the pool's integrated replica-time (busy fraction of the
	// capacity that actually existed).
	Busy units.Millis
	Util float64
	// Cost is the pool's replica-seconds times the platform cost rate.
	Cost float64
}

// ScaleEvent is one autoscaler decision.
type ScaleEvent struct {
	// T is the decision time; Node and Deployment identify the pool.
	T          units.Millis
	Node       int
	Deployment int
	// From and To are the live replica counts before and after. A
	// scale-down may take effect lazily (when every replica is busy, the
	// next freed replica retires), but the decision is recorded here.
	From int
	To   int
}

// tally is the request accounting both reports share: the counters, the
// response-time percentiles over completed requests and the per-tenant
// rows.
type tally struct {
	offered, admitted, completed, met, shed int
	attainment, goodput                     float64
	p50, p95, p99, max                      units.Millis
	tenants                                 []TenantReport
}

// tally accounts every request of the drained engine. The per-tenant
// response times are carved from one exactly sized slab, sorted in
// place, and merged into the all-tenant sorted list, so the percentiles
// read the same multiset a sort of every response would.
func (e *engine) tally(makespan units.Millis) tally {
	t := tally{tenants: make([]TenantReport, len(e.o.Tenants))}
	for ti, tn := range e.o.Tenants {
		t.tenants[ti] = TenantReport{Name: tn.Name, Model: tn.Model}
	}
	for i := range e.reqs {
		req := &e.reqs[i]
		tr := &t.tenants[req.tenant]
		t.offered++
		tr.Offered++
		switch req.state {
		case stShedGateway:
			t.shed++
			tr.Shed++
		case stShedHopeless:
			t.admitted++
			t.shed++
			tr.Shed++
		case stDone:
			t.admitted++
			t.completed++
			tr.Completed++
			if req.finish <= req.deadline {
				t.met++
				tr.SLOMet++
			}
		}
	}

	slab := make([]float64, 2*t.completed)
	resp, all := slab[:t.completed], slab[t.completed:]
	per := make([][]float64, len(t.tenants))
	off := 0
	for ti := range t.tenants {
		n := t.tenants[ti].Completed
		per[ti] = resp[off : off : off+n]
		off += n
	}
	for i := range e.reqs {
		if req := &e.reqs[i]; req.state == stDone {
			per[req.tenant] = append(per[req.tenant], float64(req.finish-req.arrive))
		}
	}
	for ti := range per {
		sort.Float64s(per[ti])
	}
	mergeSorted(all, per)

	t.attainment = attainment(t.met, t.offered)
	if makespan > 0 {
		t.goodput = float64(t.met) * 1e3 / float64(makespan)
	}
	t.p50 = units.Millis(stats.Percentile(all, 50))
	t.p95 = units.Millis(stats.Percentile(all, 95))
	t.p99 = units.Millis(stats.Percentile(all, 99))
	if len(all) > 0 {
		t.max = units.Millis(all[len(all)-1])
	}
	for ti := range t.tenants {
		tr := &t.tenants[ti]
		tr.Attainment = attainment(tr.SLOMet, tr.Offered)
		tr.P50 = units.Millis(stats.Percentile(per[ti], 50))
		tr.P95 = units.Millis(stats.Percentile(per[ti], 95))
		tr.P99 = units.Millis(stats.Percentile(per[ti], 99))
	}
	return t
}

// mergeSorted fills dst, whose length is the total length of the sorted
// lists, with their ascending merge: each step takes the smallest head,
// ties going to the earlier list.
func mergeSorted(dst []float64, lists [][]float64) {
	heads := make([]int, len(lists))
	for k := range dst {
		best := -1
		for li, l := range lists {
			if heads[li] < len(l) && (best < 0 || l[heads[li]] < lists[best][heads[best]]) {
				best = li
			}
		}
		dst[k] = lists[best][heads[best]]
		heads[best]++
	}
}

func attainment(met, offered int) float64 {
	if offered == 0 {
		return 1
	}
	return float64(met) / float64(offered)
}

// report assembles the Report from the drained engine state.
func (e *engine) report(makespan units.Millis) *Report {
	t := e.tally(makespan)
	r := &Report{
		Router:        e.o.Router,
		Horizon:       e.o.Horizon,
		Makespan:      makespan,
		Offered:       t.offered,
		Admitted:      t.admitted,
		Completed:     t.completed,
		SLOMet:        t.met,
		Shed:          t.shed,
		Attainment:    t.attainment,
		GoodputPerSec: t.goodput,
		P50:           t.p50,
		P95:           t.p95,
		P99:           t.p99,
		Max:           t.max,
		Events:        e.popped,
		Tenants:       t.tenants,
		Scales:        e.scales,
		Queue:         e.points,
	}
	for ni := range e.nodes {
		nd := &e.nodes[ni]
		for di := range nd.pools {
			p := &nd.pools[di]
			p.setLive(p.live, makespan) // close the replica-time integral
			starts := p.admitted()
			busy := p.prof.Busy.Scale(float64(starts))
			util := 0.0
			if p.replicaMs > 0 {
				util = busy.Ratio(p.replicaMs)
			}
			cost := float64(p.replicaMs.Seconds()) * nd.preset.Cost
			r.CostUnits += cost
			r.Nodes = append(r.Nodes, NodeReport{
				Node:       ni,
				Platform:   nd.preset.Key,
				Deployment: e.o.Deployments[di].Name,
				Starts:     starts,
				Replicas:   p.live,
				Peak:       p.peak,
				Busy:       busy,
				Util:       util,
				Cost:       cost,
			})
		}
	}
	return r
}

// printer writes formatted lines to w and keeps the first error, so a
// Render can emit every line unconditionally and report once.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// latencyAndTenants writes the response-time line and one line per
// tenant, the part of Render both reports share.
func (p *printer) latencyAndTenants(p50, p95, p99, max units.Millis, tenants []TenantReport) {
	p.printf("latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
		float64(p50), float64(p95), float64(p99), float64(max))
	for _, t := range tenants {
		p.printf("tenant %-12s model %d  offered %4d  met %4d  shed %4d  attainment %.4f  p99 %.3f ms\n",
			t.Name, t.Model, t.Offered, t.SLOMet, t.Shed, t.Attainment, float64(t.P99))
	}
}

// Render writes a human-readable summary. The output is deterministic
// for a given Report.
func (r *Report) Render(w io.Writer) error {
	p := &printer{w: w}
	p.printf("router %s  horizon %.2f ms  makespan %.2f ms  events %d\n",
		r.Router, float64(r.Horizon), float64(r.Makespan), r.Events)
	p.printf("offered %d  admitted %d  completed %d  slo-met %d  shed %d  attainment %.4f  goodput %.2f req/s  cost %.2f\n",
		r.Offered, r.Admitted, r.Completed, r.SLOMet, r.Shed, r.Attainment, r.GoodputPerSec, r.CostUnits)
	p.latencyAndTenants(r.P50, r.P95, r.P99, r.Max, r.Tenants)
	for _, n := range r.Nodes {
		p.printf("node %d/%s  %s  starts %4d  replicas %d (peak %d)  util %.3f  cost %.2f\n",
			n.Node, n.Platform, n.Deployment, n.Starts, n.Replicas, n.Peak, n.Util, n.Cost)
	}
	for _, s := range r.Scales {
		p.printf("scale t %.2f ms  node %d dep %d  %d -> %d\n",
			float64(s.T), s.Node, s.Deployment, s.From, s.To)
	}
	return p.err
}

// WriteQueue streams the queue-depth timeline as two-column CSV
// (time_ms,depth), suitable for plotting.
func (r *Report) WriteQueue(w io.Writer) error { return writeQueue(w, r.Queue) }

func writeQueue(w io.Writer, queue []QueuePoint) error {
	p := &printer{w: w}
	p.printf("time_ms,depth\n")
	for _, q := range queue {
		p.printf("%.6f,%d\n", float64(q.T), q.Depth)
	}
	return p.err
}
