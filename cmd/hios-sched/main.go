// Command hios-sched optimizes an operator schedule for a DL model on a
// multi-GPU platform and prints or exports it, mirroring the paper's
// Python scheduler that "generates schedules in JSON for executing
// inference on multiple GPUs".
//
// Examples:
//
//	hios-sched -model inception -size 1024 -algo hios-lp -gpus 2
//	hios-sched -model random -ops 200 -layers 14 -deps 400 -algo hios-mr -gpus 4
//	hios-sched -model nasnet -algo hios-lp -gpus 2 -out schedule.json -trace timeline.json
package main

import (
	"flag"
	"fmt"
	"os"

	hios "github.com/shus-lab/hios"
)

func main() {
	var (
		modelName = flag.String("model", "inception", "model: inception, nasnet, squeezenet, resnet50, randwire, or random")
		size      = flag.Int("size", 0, "input image size (0 = model default)")
		algo      = flag.String("algo", "hios-lp", "algorithm: "+hios.AlgorithmUsage())
		gpus      = flag.Int("gpus", 2, "number of GPUs")
		window    = flag.Int("window", 0, "max sliding-window size (0 = default)")
		ops       = flag.Int("ops", 200, "random model: number of operators")
		layers    = flag.Int("layers", 14, "random model: number of layers")
		deps      = flag.Int("deps", 400, "random model: number of dependencies")
		seed      = flag.Int64("seed", 1, "random model: seed")
		commRatio = flag.Float64("p", 0.8, "random model: transfer/compute time ratio")
		outPath   = flag.String("out", "", "write the schedule JSON to this file")
		tracePath = flag.String("trace", "", "write a chrome://tracing timeline to this file")
		serialize = flag.Bool("serialize-links", true, "model each GPU pair's link as a shared resource in the timeline")
		evalPath  = flag.String("eval", "", "skip optimization: load this schedule JSON and evaluate it against the model")
		gantt     = flag.Bool("gantt", false, "print a text Gantt chart of the simulated execution")
		dotPath   = flag.String("dot", "", "write a Graphviz rendering of the scheduled graph to this file")
	)
	flag.Parse()

	g, name, err := buildModel(*modelName, *size, *ops, *layers, *deps, *commRatio, *seed)
	if err != nil {
		fatal(err)
	}
	m := hios.DefaultCostModel(g)

	var res hios.Result
	if *evalPath != "" {
		data, err := os.ReadFile(*evalPath)
		if err != nil {
			fatal(err)
		}
		s, err := hios.ImportJSON(data)
		if err != nil {
			fatal(err)
		}
		lat, err := hios.Latency(g, m, s)
		if err != nil {
			fatal(fmt.Errorf("schedule %s does not fit model %s: %w", *evalPath, name, err))
		}
		res = hios.Result{Schedule: s, Latency: lat}
		*algo = "(loaded from " + *evalPath + ")"
	} else {
		opt := hios.Options{GPUs: *gpus, Window: *window}
		if err := opt.Validate(hios.Algorithm(*algo)); err != nil {
			fatal(err)
		}
		res, err = hios.Optimize(g, m, hios.Algorithm(*algo), opt)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("model:     %s (%d operators, %d dependencies)\n", name, g.NumOps(), g.NumEdges())
	fmt.Printf("algorithm: %s on %d GPU(s)\n", *algo, *gpus)
	fmt.Printf("latency:   %.4f ms (sequential: %.4f ms, speedup %.2fx)\n",
		res.Latency, g.TotalOpTime(), g.TotalOpTime()/float64(res.Latency))
	fmt.Printf("stages:    %d across %d used GPU(s)\n", res.Schedule.NumStages(), res.Schedule.UsedGPUs())

	if mem, err := hios.AnalyzeMemory(g, m, res.Schedule); err == nil && mem.MaxPeak() > 0 {
		fmt.Printf("memory:    peak per GPU:")
		for gi, b := range mem.PeakBytes {
			fmt.Printf(" GPU%d=%.1fMB", gi, float64(b)/(1<<20))
		}
		fmt.Println()
	}

	if *outPath != "" {
		data, err := hios.ExportJSON(g, res.Schedule, name, hios.Algorithm(*algo), res.Latency)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule:  written to %s\n", *outPath)
	}
	if *tracePath != "" || *gantt {
		tr, err := hios.Simulate(g, m, res.Schedule, *serialize)
		if err != nil {
			fatal(err)
		}
		if *tracePath != "" {
			data, err := hios.ChromeTrace(g, tr)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("timeline:  written to %s (simulated latency %.4f ms)\n", *tracePath, tr.Latency)
		}
		if *gantt {
			fmt.Println()
			fmt.Print(hios.Gantt(g, tr, 72))
		}
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(hios.DOT(g, res.Schedule)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("graphviz:  written to %s\n", *dotPath)
	}
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
	fmt.Fprintln(os.Stderr, "hios-sched:", err)
	os.Exit(1)
}
