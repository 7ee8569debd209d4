// Command hios-cluster simulates a cluster-scale serving control plane:
// a heterogeneous fleet of multi-GPU nodes serving one scheduled model
// behind an admission-controlled gateway, with pluggable router policies
// and an optional replica autoscaler (DESIGN.md §14). The deployment's
// per-platform serving profiles are derived by scheduling the model with
// HIOS on each platform preset, exactly as hios-serve does for one node.
//
// Examples:
//
//	hios-cluster -nodes 6 -router least-load -load 0.95
//	hios-cluster -node platform=a40,count=2,replicas=2 -node platform=v100s,count=1 -router weighted
//	hios-cluster -tenant name=web,deadline=20,rate=800 -autoscale -scale-max 6
//	hios-cluster -sweep -seeds 4 -sizes 2,4,8 -json   # figure Serve2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	hios "github.com/shus-lab/hios"
)

func main() {
	var (
		modelName = flag.String("model", "squeezenet", "model: inception, nasnet, squeezenet or resnet50")
		size      = flag.Int("size", 0, "input image size (0 = model default)")
		algo      = flag.String("algo", "hios-lp", "scheduling algorithm per platform: "+hios.AlgorithmUsage())
		gpus      = flag.Int("gpus", 2, "GPUs per pipeline replica")
		window    = flag.Int("window", 0, "max sliding-window size (0 = default)")

		nodes    = flag.Int("nodes", 4, "fleet size when no -node is given; node i cycles the platform presets")
		replicas = flag.Int("replicas", 2, "initial replicas per (node, deployment) pool for -nodes fleets")
		router   = flag.String("router", "", "router policy: "+hios.RouterPolicyUsage()+" (empty = least-load)")
		load     = flag.Float64("load", 0.9, "default tenants: offered load as a fraction of fleet capacity (ignored when -tenant is given)")
		horizon  = flag.Float64("horizon", 0, "arrival horizon in ms (0 = default)")
		seed     = flag.Int64("seed", 1, "seed of the arrival processes")

		admitRate  = flag.Float64("admit-rate", 0, "gateway token-bucket admission rate in req/s (0 = unlimited)")
		admitBurst = flag.Int("admit-burst", 0, "gateway token-bucket burst (0 = default when -admit-rate is set)")
		maxQueue   = flag.Int("max-queue", 0, "shed arrivals beyond this cluster-wide queue depth (0 = unbounded)")
		shedLate   = flag.Bool("shed-hopeless", false, "shed requests at dispatch once their deadline is unreachable")

		autoscale     = flag.Bool("autoscale", false, "enable the per-pool replica autoscaler")
		scaleMin      = flag.Int("scale-min", 0, "autoscaler: min replicas per pool (0 = default)")
		scaleMax      = flag.Int("scale-max", 0, "autoscaler: max replicas per pool (0 = default)")
		scaleInterval = flag.Float64("scale-interval", 0, "autoscaler: control interval in ms (0 = default)")

		queuePath = flag.String("queue", "", "write the queue-depth timeline CSV to this file")

		sweepFlag = flag.Bool("sweep", false, "run the attainment-vs-fleet-size sweep (figure Serve2) instead of one simulation")
		seeds     = flag.Int("seeds", 0, "sweep: arrival seeds averaged per data point (0 = default)")
		sizesFlag = flag.String("sizes", "", "sweep: comma-separated fleet sizes (empty = default)")
		requests  = flag.Int("requests", 0, "sweep: target arrivals per cell (0 = default)")
		workers   = flag.Int("workers", 0, "sweep: worker pool width (0 = GOMAXPROCS; output is byte-identical at any width)")

		asJSON = flag.Bool("json", false, "emit JSON instead of text")
	)
	var fleetNodes []hios.ClusterNodeSpec
	nodeSpec := hios.NodeSpecParser()
	flag.Func("node", `repeatable node-group spec, e.g. "platform=a40,count=2,replicas=2"; platforms: a40, a5500, v100s`, func(s string) error {
		n, err := nodeSpec.Parse(s)
		if err != nil {
			return err
		}
		fleetNodes = append(fleetNodes, n)
		return nil
	})
	var tenants []hios.ClusterTenant
	tenantSpec := hios.TenantSpec()
	flag.Func("tenant", `repeatable tenant spec, e.g. "name=web,deadline=20,rate=300" (open-loop) or "name=batch,deadline=200,clients=4,think=5" (closed-loop); deadline/think in ms, rate in req/s`, func(s string) error {
		t, err := tenantSpec.Parse(s)
		if err != nil {
			return err
		}
		tenants = append(tenants, t)
		return nil
	})
	flag.Parse()

	if *sweepFlag {
		sizes, err := parseSizes(*sizesFlag)
		if err != nil {
			fatal(err)
		}
		opt := hios.FleetSweepOptions{
			Seeds:     *seeds,
			Sizes:     sizes,
			Requests:  *requests,
			Load:      *load,
			Replicas:  *replicas,
			GPUs:      *gpus,
			Window:    *window,
			InputSize: *size,
			Workers:   *workers,
		}
		if *router != "" {
			opt.Routers = []hios.RouterPolicy{hios.RouterPolicy(*router)}
		}
		if err := opt.Validate(); err != nil {
			fatal(err)
		}
		f, err := hios.AttainmentVsFleet(opt)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			if err := f.RenderJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			f.Render(os.Stdout)
		}
		return
	}

	dep, err := buildDeployment(*modelName, *size, *algo, *gpus, *window)
	if err != nil {
		fatal(err)
	}
	if len(fleetNodes) == 0 {
		fleetNodes = defaultFleet(*nodes, *replicas)
	}
	opt := hios.ClusterOptions{
		Fleet:       hios.FleetSpec{Nodes: fleetNodes},
		Deployments: []hios.ClusterDeployment{dep},
		Router:      hios.RouterPolicy(*router),
		Admission: hios.ClusterAdmission{
			RatePerSec:   *admitRate,
			Burst:        *admitBurst,
			MaxQueue:     *maxQueue,
			ShedHopeless: *shedLate,
		},
		Autoscaler: hios.AutoscalerOptions{
			Enabled:     *autoscale,
			Interval:    hios.Millis(*scaleInterval),
			MinReplicas: *scaleMin,
			MaxReplicas: *scaleMax,
		},
		Horizon: hios.Millis(*horizon),
		Seed:    *seed,
	}
	if len(tenants) == 0 {
		tenants = defaultTenants(dep, opt, *load)
	}
	opt.Tenants = tenants
	if err := opt.Validate(); err != nil {
		fatal(err)
	}
	rep, err := hios.ClusterServe(opt)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("model:     %s, %s per platform, %d GPU(s) per replica\n", dep.Name, *algo, *gpus)
		fmt.Printf("fleet:     %d node(s), capacity %.1f req/s at initial replicas\n",
			opt.Fleet.NumNodes(), opt.Capacity(0))
		if err := rep.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *queuePath != "" {
		f, err := os.Create(*queuePath)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteQueue(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("queue:     depth timeline written to %s\n", *queuePath)
	}
}

// buildDeployment schedules the model once per platform preset and
// collects the resulting serving profiles into one fleet-wide
// deployment, mirroring the Serve2 sweep's construction.
func buildDeployment(name string, size int, algo string, gpus, window int) (hios.ClusterDeployment, error) {
	dep := hios.ClusterDeployment{Name: name}
	for _, p := range hios.ClusterPresets() {
		net, err := buildNet(name, p.Platform, size)
		if err != nil {
			return dep, err
		}
		m, err := hios.CachedCostModel(net)
		if err != nil {
			return dep, fmt.Errorf("%s: %w", p.Key, err)
		}
		sopt := hios.Options{GPUs: gpus, Window: window}
		if err := sopt.Validate(hios.Algorithm(algo)); err != nil {
			return dep, err
		}
		res, err := hios.Optimize(net.G, m, hios.Algorithm(algo), sopt)
		if err != nil {
			return dep, fmt.Errorf("%s: %w", p.Key, err)
		}
		sm, err := hios.NewServeModel(net.Name, net.G, m, res.Schedule)
		if err != nil {
			return dep, fmt.Errorf("%s: %w", p.Key, err)
		}
		dep.Profiles = append(dep.Profiles, hios.ClusterProfileOf(p.Key, sm))
	}
	return dep, nil
}

func buildNet(name string, p hios.Platform, size int) (*hios.Net, error) {
	switch name {
	case "inception":
		if size == 0 {
			size = 299
		}
		return hios.InceptionV3(p, size), nil
	case "nasnet":
		if size == 0 {
			size = 331
		}
		return hios.NASNetA(p, size), nil
	case "squeezenet":
		if size == 0 {
			size = 224
		}
		return hios.SqueezeNet(p, size), nil
	case "resnet50":
		if size == 0 {
			size = 224
		}
		return hios.ResNet50(p, size), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want inception, nasnet, squeezenet or resnet50)", name)
	}
}

// defaultFleet cycles the platform presets over n nodes, the same shape
// the Serve2 sweep uses.
func defaultFleet(n, replicas int) []hios.ClusterNodeSpec {
	presets := hios.ClusterPresets()
	out := make([]hios.ClusterNodeSpec, n)
	for i := range out {
		out[i] = hios.ClusterNodeSpec{Platform: presets[i%len(presets)].Key, Count: 1, Replicas: replicas}
	}
	return out
}

// defaultTenants mirrors the Serve2 mix: an interactive tenant with a
// tight SLO taking 60% of the offered load and a batch tenant with a
// loose SLO taking 40%, scaled to the fleet's initial capacity.
func defaultTenants(dep hios.ClusterDeployment, opt hios.ClusterOptions, load float64) []hios.ClusterTenant {
	minLat := dep.Profiles[0].Latency
	for _, p := range dep.Profiles[1:] {
		if p.Latency < minLat {
			minLat = p.Latency
		}
	}
	rate := load * opt.Capacity(0)
	return []hios.ClusterTenant{
		{Name: "interactive", Deadline: minLat.Scale(4), Rate: 0.6 * rate},
		{Name: "batch", Deadline: minLat.Scale(12), Rate: 0.4 * rate},
	}
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hios-cluster:", err)
	os.Exit(1)
}
