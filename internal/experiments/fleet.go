package experiments

import (
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/parallel"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// FleetSweepOptions parameterizes the cluster-serving attainment sweep
// (figure Serve2). The zero value of every field selects a documented
// default; Validate reports structural violations.
type FleetSweepOptions struct {
	// Seeds is the number of independent arrival traces averaged per
	// data point (0 = 4).
	Seeds int
	// Sizes are the fleet sizes (node counts) on the x axis (nil = 2, 4,
	// 8, 12). Each fleet cycles the platform presets — a40, a5500,
	// v100s, a40, ... — so every size above 2 is heterogeneous.
	Sizes []int
	// Routers are the gateway policies compared as series (nil = every
	// registered policy).
	Routers []cluster.RouterPolicy
	// Requests is the target arrival count per cell; the horizon is
	// derived from it and the offered rate. Every admitted open-loop
	// request is exactly three events (arrive, done, free), so the
	// default 350000 arrivals put ≥ 1e6 events in every cell (0 =
	// 350000).
	Requests int
	// Load is the offered load as a fraction of each fleet's aggregate
	// capacity at its initial replica counts (0 = 0.95) — near
	// saturation, where routing quality decides attainment.
	Load float64
	// Replicas is the initial replica count of every (node, deployment)
	// pool (0 = 2).
	Replicas int
	// GPUs is M, the devices one pipeline replica spans (0 = 2).
	GPUs int
	// Window is the sliding-window size w of the scheduler (0 =
	// default).
	Window int
	// InputSize is the benchmark model's input image size (0 = 224;
	// tests shrink it to keep schedule construction fast).
	InputSize int
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS, 1 =
	// serial reference; output is byte-identical at any width).
	Workers int
}

func (o *FleetSweepOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{2, 4, 8, 12}
	}
	if len(o.Routers) == 0 {
		o.Routers = cluster.RouterPolicies()
	}
	if o.Requests <= 0 {
		o.Requests = 350000
	}
	if o.Load <= 0 {
		o.Load = 0.95
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.GPUs <= 0 {
		o.GPUs = 2
	}
	if o.InputSize <= 0 {
		o.InputSize = 224
	}
}

// Validate reports the first structural violation of the sweep options.
// Zero values are valid (defaults); negatives, zero fleet sizes and
// unknown router policies are not.
func (o FleetSweepOptions) Validate() error {
	if o.Seeds < 0 || o.Requests < 0 || o.Replicas < 0 || o.GPUs < 0 || o.Window < 0 || o.InputSize < 0 || o.Workers < 0 {
		return fmt.Errorf("experiments: negative fleet-sweep option: %+v", o)
	}
	if !(o.Load >= 0) || math.IsInf(o.Load, 1) {
		return fmt.Errorf("experiments: fleet-sweep load %g, want a finite value >= 0", o.Load)
	}
	for i, n := range o.Sizes {
		if n <= 0 {
			return fmt.Errorf("experiments: fleet size %d is %d, want > 0", i, n)
		}
	}
	for _, r := range o.Routers {
		if !cluster.RouterRegistry.Valid(r) {
			return fmt.Errorf("experiments: %w %q", cluster.ErrUnknownRouterPolicy, string(r))
		}
	}
	return nil
}

// fleetProfiles schedules the benchmark model once per platform preset
// with HIOS-LP and converts each schedule into a cluster serving
// profile: the same deployment runs with genuinely different latency
// and period on each platform, which is what gives the weighted router
// a real cost/latency tradeoff.
func fleetProfiles(opt FleetSweepOptions) ([]cluster.Profile, error) {
	var profs []cluster.Profile
	for _, p := range cluster.Presets() {
		net := model.SqueezeNet(p.Platform.Dev, p.Platform.Link, opt.InputSize)
		cm := cost.FromGraph(net.G, cost.DefaultContention())
		res, err := Run(AlgoHIOSLP, net.G, cm, RunConfig{GPUs: opt.GPUs, Window: opt.Window})
		if err != nil {
			return nil, fmt.Errorf("AttainmentVsFleet: %s: %w", p.Key, err)
		}
		sm, err := cluster.NewServeModel(net.Name, net.G, cm, res.Schedule)
		if err != nil {
			return nil, fmt.Errorf("AttainmentVsFleet: %s: %w", p.Key, err)
		}
		profs = append(profs, cluster.ProfileOf(p.Key, sm))
	}
	return profs, nil
}

// fleetSpec builds the n-node heterogeneous fleet of figure Serve2:
// node i runs platform preset i mod len(Presets).
func fleetSpec(n, replicas int) cluster.FleetSpec {
	keys := cluster.PresetKeys()
	nodes := make([]cluster.NodeSpec, n)
	for i := 0; i < n; i++ {
		nodes[i] = cluster.NodeSpec{Platform: keys[i%len(keys)], Count: 1, Replicas: replicas}
	}
	return cluster.FleetSpec{Nodes: nodes}
}

// AttainmentVsFleet is the cluster counterpart of AttainmentVsLoad
// (figure Serve2): SLO attainment versus fleet size for every router
// policy. One benchmark model is scheduled per platform preset with
// HIOS-LP; each fleet size cycles the presets into a heterogeneous
// fleet serving two open-loop tenants — interactive (tight SLO, 60% of
// traffic) and batch (loose SLO, 40%) — offered at a fixed fraction of
// that fleet's aggregate capacity, so the x axis isolates how well each
// router converts added heterogeneous nodes into met deadlines.
//
// Every (size, seed) cell is one task on the deterministic pool running
// all routers on the same seeded trace, and the merge is index-ordered,
// so the figure is byte-identical at any Workers width.
func AttainmentVsFleet(opt FleetSweepOptions) (Figure, error) {
	if err := opt.Validate(); err != nil {
		return Figure{}, err
	}
	opt.fill()

	profs, err := fleetProfiles(opt)
	if err != nil {
		return Figure{}, err
	}
	dep := cluster.Deployment{Name: "squeezenet", Profiles: profs}
	minLat := profs[0].Latency
	for _, p := range profs[1:] {
		if p.Latency < minLat {
			minLat = p.Latency
		}
	}
	tight := minLat.Scale(4)
	loose := minLat.Scale(12)

	xs := make([]float64, len(opt.Sizes))
	for i, n := range opt.Sizes {
		xs[i] = float64(n)
	}
	samples := make([][]*stats.Sample, len(opt.Routers))
	for si := range samples {
		samples[si] = make([]*stats.Sample, len(opt.Sizes))
		for i := range opt.Sizes {
			samples[si][i] = &stats.Sample{}
		}
	}

	cells, err := parallel.Map(len(opt.Sizes)*opt.Seeds, opt.Workers, func(t int) ([]float64, error) {
		i, seed := t/opt.Seeds, int64(t%opt.Seeds)+1
		base := cluster.Options{
			Fleet:       fleetSpec(opt.Sizes[i], opt.Replicas),
			Deployments: []cluster.Deployment{dep},
			Seed:        seed,
		}
		rate := opt.Load * base.Capacity(0)
		base.Horizon = units.Millis(float64(opt.Requests) * 1e3 / rate)
		base.Tenants = []cluster.Tenant{
			{Name: "interactive", Deadline: tight, Rate: 0.6 * rate},
			{Name: "batch", Deadline: loose, Rate: 0.4 * rate},
		}
		atts := make([]float64, 0, len(opt.Routers))
		for _, router := range opt.Routers {
			o := base
			o.Router = router
			rep, err := cluster.Run(o)
			if err != nil {
				return nil, fmt.Errorf("AttainmentVsFleet: %s size=%d seed=%d: %w",
					router, opt.Sizes[i], seed, err)
			}
			atts = append(atts, rep.Attainment)
		}
		return atts, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for t, atts := range cells {
		i := t / opt.Seeds
		for si := range opt.Routers {
			samples[si][i].Add(atts[si])
		}
	}
	fig := Figure{
		ID:     "Serve2",
		Title:  "SLO attainment vs fleet size (router policy)",
		XLabel: "fleet_nodes",
		YLabel: "slo_attainment",
	}
	for si, router := range opt.Routers {
		fig.Series = append(fig.Series, collect(string(router), xs, samples[si]))
	}
	return fig, nil
}
