package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"github.com/shus-lab/hios"
)

// workload is one set of inputs the benchmark runs. Every request of a
// workload does the same kind of work, so its medians and tails mean
// something.
type workload struct {
	name string
	// cold workloads reset both process-wide caches before every request,
	// outside the timer, as a fresh process would start. Warm ones keep
	// what set-up filled.
	cold bool
	// parallel workloads use every core in a request; the reference
	// computation then runs one copy per core.
	parallel bool
	// round is how many requests run between two checks of the clock.
	// plan-cnn runs whole passes, so every job is measured equally often.
	round int
	setup func(seed int64, tr *tracer) (*prepared, error)
}

// prepared is a workload after set-up: n inputs, and the request that
// serves input i. run does the timed work; the check it returns runs after
// the timer stops, verifies the outputs and returns their digest, which
// must repeat whenever the input does. extra, when set, is traced-only
// work outside the request timer.
type prepared struct {
	n     int
	run   func(i int, tr *tracer) (check func() (string, error), err error)
	extra func(i int, tr *tracer) error
}

var workloads = []workload{
	{name: "plan-random", cold: true, round: 1, setup: setupPlanRandom},
	{name: "plan-cnn", cold: true, round: len(cnnPlatforms) * len(cnnInception), setup: setupPlanCNN},
	{name: "fleet", cold: false, round: 1, setup: setupFleet},
	{name: "sweep", cold: true, parallel: true, round: 1, setup: setupSweep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputSeeds derives the seeds of n inputs from the run's seed.
func inputSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int64()
	}
	return seeds
}

var spanOf = map[hios.Algorithm]string{
	hios.HIOSLP: "sched.lp",
	hios.HIOSMR: "sched.mr",
	hios.IOS:    "sched.ios",
}

// plannedAlgos are the schedulers both plan workloads run, HIOS-LP first.
var plannedAlgos = []hios.Algorithm{hios.HIOSLP, hios.HIOSMR, hios.IOS}

// checkLatency is the schedule oracle: re-evaluating a schedule must
// reproduce the latency its scheduler reported, bit for bit.
func checkLatency(g *hios.Graph, m hios.CostModel, algo hios.Algorithm, res hios.Result) error {
	tm, err := hios.Evaluate(g, m, res.Schedule)
	if err != nil {
		return fmt.Errorf("%s: evaluate: %w", algo, err)
	}
	if math.Float64bits(float64(tm.Latency)) != math.Float64bits(float64(res.Latency)) {
		return fmt.Errorf("%s: evaluated latency %v, scheduler reported %v", algo, tm.Latency, res.Latency)
	}
	return nil
}

// windowSplit is the traced-only extra of both plan workloads: HIOS-LP's
// two passes run separately, so the trace splits its time between the
// inter-GPU mapping and the sliding window.
func windowSplit(tr *tracer, g *hios.Graph, m hios.CostModel, gpus int) error {
	inter, err := timed(tr, "sched.interlp", func() (hios.Result, error) {
		return hios.Optimize(g, m, hios.InterLP, hios.Options{GPUs: gpus})
	})
	if err != nil {
		return err
	}
	res, err := timed(tr, "window.parallelize", func() (hios.Result, error) {
		return hios.Parallelize(g, m, inter.Schedule, 4)
	})
	if err != nil {
		return err
	}
	if res.Latency > inter.Latency {
		return fmt.Errorf("window pass raised latency from %v to %v", inter.Latency, res.Latency)
	}
	return nil
}

// plan-random: §V random models, generated from the seed during set-up
// (they are the workload's inputs), so each request is one cold planning
// of a DAG no other request shares.
func setupPlanRandom(seed int64, tr *tracer) (*prepared, error) {
	const inputs, gpus = 256, 4
	graphs, err := timed(tr, "model.build", func() ([]*hios.Graph, error) {
		graphs := make([]*hios.Graph, inputs)
		for i, s := range inputSeeds(seed, inputs) {
			cfg := hios.RandomModelDefaults()
			cfg.Seed = s
			g, err := hios.RandomModel(cfg)
			if err != nil {
				return nil, fmt.Errorf("random model %d: %w", i, err)
			}
			graphs[i] = g
		}
		return graphs, nil
	})
	if err != nil {
		return nil, err
	}
	run := func(i int, tr *tracer) (func() (string, error), error) {
		g := graphs[i]
		m, _ := timed(tr, "cost.model", func() (hios.CostModel, error) { return hios.DefaultCostModel(g), nil })
		res := make([]hios.Result, len(plannedAlgos))
		for k, algo := range plannedAlgos {
			r, err := timed(tr, spanOf[algo], func() (hios.Result, error) {
				return hios.Optimize(g, m, algo, hios.Options{GPUs: gpus})
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", algo, err)
			}
			res[k] = r
		}
		lp := res[0]
		if _, err := timed(tr, "sched.evaluate", func() (*hios.Timing, error) { return hios.Evaluate(g, m, lp.Schedule) }); err != nil {
			return nil, fmt.Errorf("evaluate: %w", err)
		}
		st, err := timed(tr, "sim.simulate", func() (*hios.SimTrace, error) { return hios.Simulate(g, m, lp.Schedule, false) })
		if err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
		return func() (string, error) {
			for k, algo := range plannedAlgos {
				if err := checkLatency(g, m, algo, res[k]); err != nil {
					return "", err
				}
			}
			tr.add("sched.ios_over_lp", float64(res[2].Latency)/float64(lp.Latency))
			tr.add("sched.plans", 1)
			return fmt.Sprint(lp.Latency, res[1].Latency, res[2].Latency, st.Latency), nil
		}, nil
	}
	extra := func(i int, tr *tracer) error {
		return windowSplit(tr, graphs[i], hios.DefaultCostModel(graphs[i]), gpus)
	}
	return &prepared{n: inputs, run: run, extra: extra}, nil
}

// plan-cnn: the real-system suite. A request is one platform at one
// position of the input-size sweep: it builds Inception-v3 and NASNet-A at
// that size, so every request costs about the same.
var (
	cnnPlatforms = []func() hios.Platform{hios.DualA40, hios.DualA5500, hios.DualV100S}
	cnnInception = []int{299, 512, 1024, 2048}
	cnnNASNet    = []int{331, 512, 1024, 2048}
)

func setupPlanCNN(_ int64, _ *tracer) (*prepared, error) {
	run := func(i int, tr *tracer) (func() (string, error), error) {
		plat := cnnPlatforms[i/len(cnnInception)]()
		k := i % len(cnnInception)
		builds := []func() *hios.Net{
			func() *hios.Net { return hios.InceptionV3(plat, cnnInception[k]) },
			func() *hios.Net { return hios.NASNetA(plat, cnnNASNet[k]) },
		}
		type planned struct {
			net *hios.Net
			m   hios.CostModel
			res hios.Result
			st  hios.ProfileStats
			sim hios.Millis
		}
		var out []planned
		for _, build := range builds {
			net, _ := timed(tr, "model.build", func() (*hios.Net, error) { return build(), nil })
			m, _ := timed(tr, "cost.model", func() (hios.CostModel, error) { return hios.DefaultCostModel(net.G), nil })
			for _, algo := range plannedAlgos {
				tab, _ := timed(tr, "cost.model", func() (*hios.ProfiledModel, error) { return hios.Profiled(m, 0, 0), nil })
				res, err := timed(tr, spanOf[algo], func() (hios.Result, error) {
					return hios.Optimize(net.G, tab, algo, hios.Options{GPUs: plat.GPUs})
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", algo, err)
				}
				st, err := timed(tr, "sim.simulate", func() (*hios.SimTrace, error) {
					return hios.Simulate(net.G, m, res.Schedule, true)
				})
				if err != nil {
					return nil, fmt.Errorf("%s: simulate: %w", algo, err)
				}
				out = append(out, planned{net, m, res, tab.Stats(), st.Latency})
			}
		}
		return func() (string, error) {
			var digest bytes.Buffer
			for j, p := range out {
				algo := plannedAlgos[j%len(plannedAlgos)]
				if err := checkLatency(p.net.G, p.m, algo, p.res); err != nil {
					return "", err
				}
				tr.add("profile.probes", float64(p.st.Probes()))
				tr.add("profile.sim_ms", float64(p.st.SimulatedMs))
				fmt.Fprint(&digest, p.res.Latency, p.sim, p.st.Probes(), p.st.SimulatedMs, ";")
			}
			for j := 0; j < len(out); j += len(plannedAlgos) {
				tr.add("sched.ios_over_lp", float64(out[j+2].res.Latency)/float64(out[j].res.Latency))
				tr.add("sched.plans", 1)
			}
			return digest.String(), nil
		}, nil
	}
	extra := func(i int, tr *tracer) error {
		net := hios.NASNetA(cnnPlatforms[i/len(cnnInception)](), cnnNASNet[i%len(cnnInception)])
		return windowSplit(tr, net.G, hios.DefaultCostModel(net.G), 2)
	}
	return &prepared{n: len(cnnPlatforms) * len(cnnInception), run: run, extra: extra}, nil
}

// fleet: NASNet-A@331 scheduled once per platform during set-up, then
// seeded traffic traces served by both event engines.
func setupFleet(seed int64, tr *tracer) (*prepared, error) {
	const inputs = 32
	var profiles []hios.ClusterProfile
	var a40 hios.ServeModel
	for _, p := range hios.ClusterPresets() {
		net, _ := timed(tr, "model.build", func() (*hios.Net, error) { return hios.NASNetA(p.Platform, 331), nil })
		m, err := timed(tr, "cost.model", func() (hios.CostModel, error) { return hios.CachedCostModel(net) })
		if err != nil {
			return nil, fmt.Errorf("%s: cost model: %w", p.Key, err)
		}
		res, err := timed(tr, "sched.lp", func() (hios.Result, error) {
			return hios.Optimize(net.G, m, hios.HIOSLP, hios.Options{GPUs: p.Platform.GPUs})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Key, err)
		}
		if err := checkLatency(net.G, m, hios.HIOSLP, res); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Key, err)
		}
		sm, err := timed(tr, "pipeline.servemodel", func() (hios.ServeModel, error) {
			return hios.NewServeModel("nasnet-331", net.G, m, res.Schedule)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Key, err)
		}
		profiles = append(profiles, hios.ClusterProfileOf(p.Key, sm))
		if p.Key == "a40" {
			a40 = sm
		}
	}
	minLat := profiles[0].Latency
	for _, p := range profiles {
		minLat = min(minLat, p.Latency)
	}
	// Interactive and batch tenants offered 0.95 of a capacity, 60/40.
	tenants := func(capacity float64) []hios.ServeTenant {
		return []hios.ServeTenant{
			{Name: "interactive", Deadline: 4 * minLat, Rate: 0.95 * 0.6 * capacity},
			{Name: "batch", Deadline: 12 * minLat, Rate: 0.95 * 0.4 * capacity},
		}
	}
	const horizon = hios.Millis(10_000)
	co := hios.ClusterOptions{
		Fleet: hios.FleetSpec{Nodes: []hios.ClusterNodeSpec{
			{Platform: "a40", Count: 4, Replicas: 2},
			{Platform: "a5500", Count: 4, Replicas: 2},
			{Platform: "v100s", Count: 4, Replicas: 2},
		}},
		Deployments: []hios.ClusterDeployment{{Name: "nasnet-331", Profiles: profiles}},
		Router:      hios.RouterLeastLoad,
		Autoscaler:  hios.AutoscalerOptions{Enabled: true, MaxReplicas: 4},
		Horizon:     horizon,
	}
	capacity := co.Capacity(0)
	co.Tenants = tenants(capacity)
	co.Admission = hios.ClusterAdmission{RatePerSec: capacity, Burst: 64, MaxQueue: 512, ShedHopeless: true}
	a40.Replicas = 4
	so := hios.ServeOptions{Models: []hios.ServeModel{a40}, Tenants: tenants(a40.Capacity()), Policy: hios.ServeEDFShed, Horizon: horizon}
	if err := co.Validate(); err != nil {
		return nil, err
	}
	if err := so.Validate(); err != nil {
		return nil, err
	}

	seeds := inputSeeds(seed, inputs)
	run := func(i int, tr *tracer) (func() (string, error), error) {
		co, so := co, so
		co.Seed, so.Seed = seeds[i], seeds[i]
		cr, err := timed(tr, "cluster.run", func() (*hios.ClusterReport, error) { return hios.ClusterServe(co) })
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		sr, err := timed(tr, "serve.run", func() (*hios.ServeReport, error) { return hios.Serve(so) })
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		return func() (string, error) {
			// Conservation: every offered request is shed at the gateway,
			// shed as hopeless after admission, or completed.
			gateway, hopeless := cr.Offered-cr.Admitted, cr.Admitted-cr.Completed
			if gateway < 0 || hopeless < 0 || cr.Shed != gateway+hopeless || cr.SLOMet > cr.Completed {
				return "", fmt.Errorf("cluster does not conserve requests: offered %d admitted %d completed %d shed %d met %d",
					cr.Offered, cr.Admitted, cr.Completed, cr.Shed, cr.SLOMet)
			}
			if sr.Offered != sr.Completed+sr.Shed || sr.SLOMet > sr.Completed {
				return "", fmt.Errorf("serve does not conserve requests: offered %d completed %d shed %d met %d",
					sr.Offered, sr.Completed, sr.Shed, sr.SLOMet)
			}
			tr.add("cluster.offered", float64(cr.Offered))
			tr.add("cluster.events", float64(cr.Events))
			tr.add("cluster.gateway_shed", float64(gateway))
			tr.add("cluster.hopeless_shed", float64(hopeless))
			tr.add("cluster.slo_met", float64(cr.SLOMet))
			tr.add("cluster.scales", float64(len(cr.Scales)))
			tr.add("serve.offered", float64(sr.Offered))
			tr.add("serve.completed", float64(sr.Completed))
			tr.add("serve.shed", float64(sr.Shed))
			tr.add("serve.slo_met", float64(sr.SLOMet))
			return fmt.Sprint(cr.Offered, cr.Admitted, cr.Completed, cr.SLOMet, cr.Events, len(cr.Scales), cr.P99,
				sr.Offered, sr.Completed, sr.SLOMet, sr.P99), nil
		}, nil
	}
	return &prepared{n: inputs, run: run}, nil
}

// sweep: Fig. 7 at one seed per point on every core, rendered to bytes.
// Its inputs are fixed; the seed does not change them.
func setupSweep(_ int64, _ *tracer) (*prepared, error) {
	fig7 := func(tr *tracer, span string, workers int) (hios.Figure, string, error) {
		fig, err := timed(tr, span, func() (hios.Figure, error) {
			return hios.Fig7(hios.SimOptions{Seeds: 1, GPUs: 4, Workers: workers})
		})
		if err != nil {
			return hios.Figure{}, "", err
		}
		var b bytes.Buffer
		fig.Render(&b)
		return fig, b.String(), nil
	}
	var last string
	run := func(_ int, tr *tracer) (func() (string, error), error) {
		fig, out, err := fig7(tr, "experiments.fig7", runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		last = out
		return func() (string, error) {
			lp, ios := seriesOf(fig, hios.HIOSLP), seriesOf(fig, hios.IOS)
			if len(lp) == 0 || len(lp) != len(ios) {
				return "", fmt.Errorf("Fig7 has %d HIOS-LP and %d IOS points", len(lp), len(ios))
			}
			for k := range lp {
				tr.add("sched.ios_over_lp", ios[k].Mean/lp[k].Mean)
				tr.add("sched.plans", 1)
			}
			return out, nil
		}, nil
	}
	// The traced run repeats each sweep on one worker: the figure must not
	// change, and the two times give the pool's parallel efficiency.
	extra := func(_ int, tr *tracer) error {
		_, out, err := fig7(tr, "experiments.fig7.w1", 1)
		if err != nil {
			return err
		}
		if out != last {
			return fmt.Errorf("Fig7 at one worker differs from Fig7 at %d workers", runtime.NumCPU())
		}
		return nil
	}
	return &prepared{n: 1, run: run, extra: extra}, nil
}

func seriesOf(fig hios.Figure, algo hios.Algorithm) []hios.FigurePoint {
	for _, s := range fig.Series {
		if s.Label == string(algo) {
			return s.Points
		}
	}
	return nil
}
