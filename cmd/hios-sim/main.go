// Command hios-sim regenerates the HIOS paper's simulation study (§V,
// Figures 7-11): six scheduling algorithms compared over random
// DAG-structured DL models while sweeping GPU count, operator count,
// dependency count, layer count, and the communication/computation ratio.
//
// With the default -seeds 30 this reproduces the paper's methodology
// (each point averages 30 random instances and reports the standard
// deviation).
//
// Examples:
//
//	hios-sim                 # all five figures, paper settings
//	hios-sim -fig 7 -seeds 5 # a quick look at the GPU-count sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	hios "github.com/shus-lab/hios"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 9adj, 10, 11 or all")
		seeds  = flag.Int("seeds", 30, "random instances per data point")
		gpus   = flag.Int("gpus", 4, "GPU count for the fixed-GPU sweeps")
		window = flag.Int("window", 0, "max sliding-window size (0 = default)")
		asJSON = flag.Bool("json", false, "emit figures as JSON instead of tables")

		workers = flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	opt := hios.SimOptions{Seeds: *seeds, GPUs: *gpus, Window: *window, Workers: *workers}
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hios-sim:", err)
		os.Exit(1)
	}
	type driver struct {
		id string
		fn func(hios.SimOptions) (hios.Figure, error)
	}
	drivers := []driver{
		{"7", hios.Fig7},
		{"8", hios.Fig8},
		{"9", hios.Fig9},
		{"9adj", hios.Fig9DependencyBound},
		{"10", hios.Fig10},
		{"11", hios.Fig11},
	}
	ran := false
	for _, d := range drivers {
		if *fig != "all" && !strings.EqualFold(*fig, d.id) {
			continue
		}
		ran = true
		f, err := d.fn(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hios-sim:", err)
			os.Exit(1)
		}
		if *asJSON {
			if err := f.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "hios-sim:", err)
				os.Exit(1)
			}
		} else {
			f.Render(os.Stdout)
			fmt.Println()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "hios-sim: unknown figure %q (want 7, 8, 9, 9adj, 10, 11 or all)\n", *fig)
		os.Exit(1)
	}
}
