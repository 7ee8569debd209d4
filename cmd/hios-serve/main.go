// Command hios-serve simulates an online, deadline-aware, multi-tenant
// serving deployment of a scheduled model: it optimizes a schedule
// exactly like hios-sched, derives the deployment's pipeline latency and
// admission period, and then replays seeded stochastic arrivals against
// a dispatch policy, reporting SLO attainment, goodput, tail latencies
// and per-GPU utilization (DESIGN.md §9).
//
// Examples:
//
//	hios-serve -model inception -algo hios-lp -gpus 2 -policy edf
//	hios-serve -model nasnet -replicas 2 -policy edf-shed -load 1.2 -queue depth.csv
//	hios-serve -tenant name=web,deadline=20,rate=300 -tenant name=batch,deadline=200,clients=4,think=5
//	hios-serve -sweep -seeds 4 -json     # attainment vs load, scheduler x policy
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
		modelName = flag.String("model", "inception", "model: inception, nasnet, squeezenet, resnet50, randwire, or random")
		size      = flag.Int("size", 0, "input image size (0 = model default)")
		algo      = flag.String("algo", "hios-lp", "algorithm: "+hios.AlgorithmUsage())
		gpus      = flag.Int("gpus", 2, "number of GPUs per pipeline replica")
		window    = flag.Int("window", 0, "max sliding-window size (0 = default)")
		ops       = flag.Int("ops", 200, "random model: number of operators")
		layers    = flag.Int("layers", 14, "random model: number of layers")
		deps      = flag.Int("deps", 400, "random model: number of dependencies")
		seed      = flag.Int64("seed", 1, "random model: seed")
		commRatio = flag.Float64("p", 0.8, "random model: transfer/compute time ratio")

		replicas    = flag.Int("replicas", 1, "identical pipeline replicas of the deployment")
		policy      = flag.String("policy", "edf", "dispatch policy: "+hios.ServePolicyUsage())
		horizon     = flag.Float64("horizon", 0, "arrival horizon in ms (0 = default)")
		arrivalSeed = flag.Int64("arrival-seed", 1, "seed of the arrival processes")
		load        = flag.Float64("load", 0.7, "default tenants: offered load as a fraction of deployment capacity (ignored when -tenant is given)")
		queuePath   = flag.String("queue", "", "write the queue-depth timeline CSV to this file")
		ganttFlag   = flag.Bool("gantt", false, "print a text Gantt chart of one request's schedule")
		dotPath     = flag.String("dot", "", "write a Graphviz rendering of the scheduled graph to this file")

		sweepFlag = flag.Bool("sweep", false, "run the attainment-vs-load sweep (scheduler x policy) instead of one simulation")
		seeds     = flag.Int("seeds", 0, "sweep: arrival seeds averaged per data point (0 = default)")
		budget    = flag.Int("budget", 0, "sweep: total GPU budget per deployment (0 = default)")
		workers   = flag.Int("workers", 0, "sweep: worker pool width (0 = GOMAXPROCS; output is byte-identical at any width)")
		loadsFlag = flag.String("loads", "", "sweep: comma-separated offered-load fractions (empty = default)")

		asJSON = flag.Bool("json", false, "emit JSON instead of text")
	)
	var tenants []hios.ServeTenant
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
		loads, err := parseLoads(*loadsFlag)
		if err != nil {
			fatal(err)
		}
		opt := hios.ServeSweepOptions{
			Seeds:     *seeds,
			GPUs:      *gpus,
			GPUBudget: *budget,
			Window:    *window,
			Workers:   *workers,
			Loads:     loads,
			Horizon:   hios.Millis(*horizon),
			Ops:       *ops,
		}
		if err := opt.Validate(); err != nil {
			fatal(err)
		}
		f, err := hios.AttainmentVsLoad(opt)
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

	g, name, err := buildModel(*modelName, *size, *ops, *layers, *deps, *commRatio, *seed)
	if err != nil {
		fatal(err)
	}
	m := hios.DefaultCostModel(g)
	sopt := hios.Options{GPUs: *gpus, Window: *window}
	if err := sopt.Validate(hios.Algorithm(*algo)); err != nil {
		fatal(err)
	}
	res, err := hios.Optimize(g, m, hios.Algorithm(*algo), sopt)
	if err != nil {
		fatal(err)
	}
	dep, err := hios.NewServeModel(name, g, m, res.Schedule)
	if err != nil {
		fatal(err)
	}
	dep.Replicas = *replicas
	if len(tenants) == 0 {
		tenants = defaultTenants(dep, *load)
	}
	opt := hios.ServeOptions{
		Models:  []hios.ServeModel{dep},
		Tenants: tenants,
		Policy:  hios.ServePolicy(*policy),
		Horizon: hios.Millis(*horizon),
		Seed:    *arrivalSeed,
	}
	if err := opt.Validate(); err != nil {
		fatal(err)
	}
	rep, err := hios.Serve(opt)
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
		fmt.Printf("model:     %s (%d operators), %s on %d GPU(s)\n", name, g.NumOps(), *algo, *gpus)
		fmt.Printf("pipeline:  latency %.4f ms, period %.4f ms, %d replica(s), capacity %.1f req/s\n",
			dep.Latency, dep.Period, dep.Replicas, dep.Capacity())
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
	if *ganttFlag {
		tr, err := hios.Simulate(g, m, res.Schedule, false)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := hios.WriteGantt(os.Stdout, g, tr, 72); err != nil {
			fatal(err)
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fatal(err)
		}
		if err := hios.WriteDOT(f, g, res.Schedule); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("graphviz:  written to %s\n", *dotPath)
	}
}

// defaultTenants mirrors the attainment sweep's mix: an interactive
// tenant with a tight SLO taking 60% of the offered load and a batch
// tenant with a loose SLO taking 40%, together offering load x capacity
// requests per second.
func defaultTenants(dep hios.ServeModel, load float64) []hios.ServeTenant {
	rate := load * dep.Capacity()
	return []hios.ServeTenant{
		{Name: "interactive", Deadline: dep.Latency.Scale(4), Rate: 0.6 * rate},
		{Name: "batch", Deadline: dep.Latency.Scale(12), Rate: 0.4 * rate},
	}
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func buildModel(name string, size, ops, layers, deps int, p float64, seed int64) (*hios.Graph, string, error) {
	switch name {
	case "inception":
		if size == 0 {
			size = 299
		}
		net := hios.InceptionV3(hios.DualA40(), size)
		return net.G, net.Name, nil
	case "nasnet":
		if size == 0 {
			size = 331
		}
		net := hios.NASNetA(hios.DualA40(), size)
		return net.G, net.Name, nil
	case "squeezenet":
		if size == 0 {
			size = 224
		}
		net := hios.SqueezeNet(hios.DualA40(), size)
		return net.G, net.Name, nil
	case "resnet50":
		if size == 0 {
			size = 224
		}
		net := hios.ResNet50(hios.DualA40(), size)
		return net.G, net.Name, nil
	case "randwire":
		cfg := hios.DefaultRandWire()
		if size != 0 {
			cfg.InputSize = size
		}
		cfg.Seed = seed
		net, err := hios.RandWireNet(hios.DualA40(), cfg)
		if err != nil {
			return nil, "", err
		}
		return net.G, net.Name, nil
	case "random":
		cfg := hios.RandomModelDefaults()
		cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed, cfg.CommRatio = ops, layers, deps, seed, p
		g, err := hios.RandomModel(cfg)
		if err != nil {
			return nil, "", err
		}
		return g, fmt.Sprintf("random-%d-%d-%d", ops, layers, deps), nil
	default:
		return nil, "", fmt.Errorf("unknown model %q (want inception, nasnet, squeezenet, resnet50, randwire or random)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hios-serve:", err)
	os.Exit(1)
}
