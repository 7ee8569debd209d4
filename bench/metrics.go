package main

import (
	"slices"
	"time"
)

// metric names one number the benchmark reports. The lists below are
// mirrored in BENCHMARK.json; the smoke test keeps the two equal.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"req_cost_p50", "ref", "lower", 0.25},
	{"req_cost_mean", "ref", "lower", 0.25},
	{"alloc_mb_per_req", "MB", "lower", 0.10},
}

// layerMetric is a metric of a traced run with the way it is derived.
type layerMetric struct {
	metric
	value func(l *layers) float64
}

// layers holds what a traced run measured: the tracer's spans and
// counters, the request times of its traced and untraced rounds, and the
// times of the reference computation.
type layers struct {
	t                       *tracer
	n                       float64 // traced requests
	traced, untraced, refMs []float64
	workers                 float64
	req, setup, extra       map[string]time.Duration // self time per span name
	reqTotal, setupAll      time.Duration
}

func newLayers(t *tracer, traced, untraced, refMs []float64, workers int) *layers {
	l := &layers{t: t, n: float64(len(traced)), traced: traced, untraced: untraced, refMs: refMs, workers: float64(workers)}
	l.req, l.reqTotal = t.layerTimes("request")
	l.setup, l.setupAll = t.layerTimes("setup")
	l.extra, _ = t.layerTimes("extra")
	return l
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) perReq(counter string) float64 { return ratio(l.t.counters[counter], l.n) }

func (l *layers) counterRatio(a, b string) float64 { return ratio(l.t.counters[a], l.t.counters[b]) }

// share is a layer's self time over the time of the traced requests.
func share(layer string) layerMetric {
	return layerMetric{metric{"span." + layer + ".share", "ratio", "lower", 0}, func(l *layers) float64 {
		return ratio(l.req[layer].Seconds(), l.reqTotal.Seconds())
	}}
}

// setupShare is a layer's self time over the time of the set-ups.
func setupShare(layer string) layerMetric {
	return layerMetric{metric{"setup." + layer + ".share", "ratio", "lower", 0}, func(l *layers) float64 {
		return ratio(l.setup[layer].Seconds(), l.setupAll.Seconds())
	}}
}

func perReq(name, unit, better, counter string) layerMetric {
	return layerMetric{metric{name, unit, better, 0}, func(l *layers) float64 { return l.perReq(counter) }}
}

func counterRatio(name, better, a, b string) layerMetric {
	return layerMetric{metric{name, "ratio", better, 0}, func(l *layers) float64 { return l.counterRatio(a, b) }}
}

// perSecond is a counter over the seconds spent in one layer's spans.
func perSecond(name, counter, layer string) layerMetric {
	return layerMetric{metric{name, "1/s", "higher", 0}, func(l *layers) float64 {
		return ratio(l.t.counters[counter], l.req[layer].Seconds())
	}}
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []layerMetric{
	share("model.build"),
	share("cost.model"),
	share("sched.lp"),
	share("sched.mr"),
	share("sched.ios"),
	share("sched.evaluate"),
	share("sim.simulate"),
	share("cluster.run"),
	share("serve.run"),
	share("experiments.fig7"),
	share("request"),
	setupShare("model.build"),
	setupShare("cost.model"),
	setupShare("sched.lp"),
	setupShare("pipeline.servemodel"),
	setupShare("warmup"),
	{metric{"window.lp_share", "ratio", "lower", 0}, func(l *layers) float64 {
		w := l.extra["window.parallelize"]
		return ratio(w.Seconds(), (w + l.extra["sched.interlp"]).Seconds())
	}},
	{metric{"sched.lp_speedup", "ratio", "higher", 0}, func(l *layers) float64 {
		return l.counterRatio("sched.ios_over_lp", "sched.plans")
	}},
	perReq("costcache.probes_per_req", "count", "lower", "costcache.probes"),
	counterRatio("costcache.hit_ratio", "higher", "costcache.hits", "costcache.probes"),
	perReq("costcache.entries", "count", "lower", "costcache.entries"),
	perReq("profile.probes_per_req", "count", "lower", "profile.probes"),
	{metric{"profile.sim_over_wall", "ratio", "higher", 0}, func(l *layers) float64 {
		wall := l.req["sched.lp"] + l.req["sched.mr"] + l.req["sched.ios"]
		return ratio(l.t.counters["profile.sim_ms"], wall.Seconds()*1e3)
	}},
	perReq("dpcache.probes_per_req", "count", "lower", "dpcache.probes"),
	counterRatio("dpcache.hit_ratio", "higher", "dpcache.hits", "dpcache.probes"),
	perReq("dpcache.blocks", "count", "lower", "dpcache.blocks"),
	perSecond("cluster.events_per_s", "cluster.events", "cluster.run"),
	perSecond("cluster.offered_per_s", "cluster.offered", "cluster.run"),
	{metric{"cluster.events_per_offered", "count", "lower", 0}, func(l *layers) float64 {
		return l.counterRatio("cluster.events", "cluster.offered")
	}},
	counterRatio("cluster.gateway_shed_ratio", "lower", "cluster.gateway_shed", "cluster.offered"),
	counterRatio("cluster.hopeless_shed_ratio", "lower", "cluster.hopeless_shed", "cluster.offered"),
	perReq("cluster.scale_events_per_req", "count", "lower", "cluster.scales"),
	counterRatio("cluster.slo_attainment", "higher", "cluster.slo_met", "cluster.offered"),
	perSecond("serve.offered_per_s", "serve.offered", "serve.run"),
	counterRatio("serve.shed_ratio", "lower", "serve.shed", "serve.offered"),
	perReq("serve.completed_per_req", "count", "higher", "serve.completed"),
	counterRatio("serve.slo_attainment", "higher", "serve.slo_met", "serve.offered"),
	{metric{"parallel.efficiency", "ratio", "higher", 0}, func(l *layers) float64 {
		return ratio(l.extra["experiments.fig7.w1"].Seconds(), l.workers*l.req["experiments.fig7"].Seconds())
	}},
	perReq("go.gc_cycles_per_req", "count", "lower", "go.gc_cycles"),
	{metric{"go.gc_pause_ms_per_req", "ms", "lower", 0}, func(l *layers) float64 { return l.perReq("go.gc_pause_ns") / 1e6 }},
	{metric{"trace.req_ms_p50", "ms", "lower", 0}, func(l *layers) float64 { return percentile(l.traced, 50) }},
	{metric{"host.ref_ms_p50", "ms", "lower", 0}, func(l *layers) float64 { return percentile(l.refMs, 50) }},
	{metric{"trace.overhead_ratio", "ratio", "lower", 0}, func(l *layers) float64 {
		return ratio(percentile(l.traced, 50), percentile(l.untraced, 50))
	}},
	{metric{"trace.spans_per_req", "count", "lower", 0}, func(l *layers) float64 {
		spans := 0
		for _, s := range l.t.spans {
			if l.t.spans[s.root].name == "request" {
				spans++
			}
		}
		return ratio(float64(spans), l.n)
	}},
}

// mean is the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// percentile interpolates linearly between the closest ranks; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	var q [3]float64
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}
