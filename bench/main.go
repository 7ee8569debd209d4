// Command bench is the repository's end-to-end benchmark. It drives the
// public hios package only, from outside, and times each layer by wrapping
// its calls into the facade.
//
//	bash bench/run.sh --workload plan-random --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -compare base.txt change.txt
//
// A run sets the workload up several times, then serves its requests one
// after another for the given seconds, checks every output, and prints an
// environment line, a table and, as its last line, one JSON result. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/shus-lab/hios"
)

// setups is how many times a run sets its workload up; setup_s is made
// from their median.
const setups = 11

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	requests int // stop after this many requests; 0 runs for seconds (tests only)
}

// env stamps a result with what it was measured on.
type env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Cache      string  `json:"cache"`
	Requests   int     `json:"requests"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
}

type value struct {
	metric
	v float64
}

// tracedReq is one traced request: its root span and its measured time.
type tracedReq struct {
	root int
	wall time.Duration
}

type report struct {
	env               env
	attempted, failed int
	values            []value
	rec               *tracer
	tracedReqs        []tracedReq
	notes             string // informational, not a metric
}

func (r *report) correct() bool { return r.failed == 0 }

func resetCaches() {
	hios.ResetSharedKernelCache()
	hios.ResetSharedBlockCache()
}

// countRequest adds one request's cache and garbage-collector counters to
// the tracer: the differences from bk, bb and bm, read before the request,
// to the current cache stats and am, read after it.
func countRequest(tr *tracer, bk hios.KernelCacheStats, bb hios.BlockCacheStats, bm, am *runtime.MemStats) {
	ak, ab := hios.SharedKernelCacheStats(), hios.SharedBlockCacheStats()
	hits := func(s hios.KernelCacheStats) int64 { return s.KernelHits + s.TransferHits + s.StageHits }
	tr.add("costcache.probes", float64(ak.Probes()-bk.Probes()))
	tr.add("costcache.hits", float64(hits(ak)-hits(bk)))
	tr.add("costcache.entries", float64(ak.Kernels+ak.Transfers+ak.Stages))
	tr.add("dpcache.probes", float64(ab.Probes()-bb.Probes()))
	tr.add("dpcache.hits", float64(ab.Hits-bb.Hits))
	tr.add("dpcache.blocks", float64(ab.Blocks))
	tr.add("go.gc_cycles", float64(am.NumGC-bm.NumGC))
	tr.add("go.gc_pause_ns", float64(am.PauseTotalNs-bm.PauseTotalNs))
}

func run(cfg config, stderr io.Writer) (*report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if !(cfg.seconds > 0) {
		return nil, fmt.Errorf("need positive -seconds")
	}
	cache := "warm"
	if w.cold {
		cache = "cold"
	}
	copies := 1
	if w.parallel {
		copies = runtime.NumCPU()
	}
	r := &report{env: env{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Cache: cache,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}}
	if cfg.trace {
		r.rec = newTracer()
	}
	rec := r.rec

	// digests holds each input's first output digest; every later request
	// on that input must reproduce it.
	digests := map[int]string{}
	verify := func(i int, check func() (string, error)) error {
		d, err := check()
		if err != nil {
			return err
		}
		if first, ok := digests[i]; !ok {
			digests[i] = d
		} else if d != first {
			return fmt.Errorf("output differs from the first request on input %d", i)
		}
		return nil
	}

	// Set-up, from cold caches each time, ends with one unmeasured request
	// on input 0, so that lazy first-use work counts as set-up. The
	// reference is timed before each set-up and after the last.
	var p *prepared
	setupSecs := make([]float64, setups)
	var setupRefs []float64
	for s := range setupSecs {
		setupRefs = append(setupRefs, reference(copies).Seconds())
		resetCaches()
		root := rec.beginRoot("setup", -1)
		t0 := time.Now()
		var err error
		var check func() (string, error)
		if p, err = w.setup(cfg.seed, rec); err == nil {
			if w.cold {
				resetCaches()
			}
			check, err = timed(rec, "warmup", func() (func() (string, error), error) { return p.run(0, nil) })
		}
		setupSecs[s] = time.Since(t0).Seconds()
		rec.end(root)
		if err == nil {
			err = verify(0, check)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	setupRefs = append(setupRefs, reference(copies).Seconds())

	var all, traced, untraced, allocMB, refMs []float64
	var refBefore []int // per request in all: the last reference before it
	timeRef := func() { refMs = append(refMs, float64(reference(copies).Nanoseconds())/1e6) }
	timeRef()
	lastRef := time.Now()
	start := time.Now()
	done := func() bool {
		if cfg.requests > 0 {
			return r.attempted >= cfg.requests
		}
		return time.Since(start).Seconds() >= cfg.seconds
	}
	for round := 0; !done(); round++ {
		// A traced run alternates traced and untraced rounds, so the
		// overhead of tracing is measured within the run.
		var tr *tracer
		if round%2 == 0 {
			tr = rec
		}
		for j := 0; j < w.round && (cfg.requests == 0 || r.attempted < cfg.requests); j++ {
			n, i := r.attempted, r.attempted%p.n
			r.attempted++
			if w.cold {
				resetCaches()
			}
			var bk hios.KernelCacheStats
			var bb hios.BlockCacheStats
			if tr != nil {
				bk, bb = hios.SharedKernelCacheStats(), hios.SharedBlockCacheStats()
			}
			var bm, am runtime.MemStats
			runtime.ReadMemStats(&bm)
			root := tr.beginRoot("request", n)
			t0 := time.Now()
			check, err := p.run(i, tr)
			d := time.Since(t0)
			tr.end(root)
			if err == nil {
				runtime.ReadMemStats(&am)
				allocMB = append(allocMB, float64(am.TotalAlloc-bm.TotalAlloc)/(1<<20))
				ms := float64(d.Nanoseconds()) / 1e6
				all = append(all, ms)
				refBefore = append(refBefore, len(refMs)-1)
				if tr != nil {
					countRequest(tr, bk, bb, &bm, &am)
					traced = append(traced, ms)
					r.tracedReqs = append(r.tracedReqs, tracedReq{root, d})
				} else {
					untraced = append(untraced, ms)
				}
				err = verify(i, check)
			}
			if err == nil && tr != nil && p.extra != nil {
				if w.cold {
					resetCaches()
				}
				x := tr.beginRoot("extra", n)
				err = p.extra(i, tr)
				tr.end(x)
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(stderr, "request %d (input %d): %v\n", n, i, err)
			}
			if time.Since(lastRef) >= refEvery {
				timeRef()
				lastRef = time.Now()
			}
		}
	}
	timeRef()
	r.env.Requests = r.attempted

	if !cfg.trace {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "setup_s":
				v = percentile(relative(setupSecs, nil, setupRefs), 50) * refSeconds
			case "req_cost_p50":
				v = percentile(relative(all, refBefore, refMs), 50)
			case "req_cost_mean":
				v = mean(relative(all, refBefore, refMs))
			case "alloc_mb_per_req":
				v = mean(allocMB)
			}
			r.values = append(r.values, value{m, v})
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		r.notes = fmt.Sprintf("over %d requests: req_ms_p50 %.6g, req_ms_p90 %.6g, req_per_s %.6g; reference %.6g ms (%d runs); set-up %.6g s, reference %.6g ms during set-up; peak RSS %.6g MB",
			len(all), percentile(all, 50), percentile(all, 90), ratio(1e3, mean(all)),
			percentile(refMs, 50), len(refMs), percentile(setupSecs, 50), percentile(setupRefs, 50)*1e3, float64(ru.Maxrss)/1024)
		return r, nil
	}
	l := newLayers(rec, traced, untraced, refMs, runtime.NumCPU())
	for _, m := range perLayer {
		r.values = append(r.values, value{m.metric, m.value(l)})
	}
	return r, nil
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type envLine struct {
	Env env `json:"env"`
}

func (r *report) write(w io.Writer) error {
	var b bytes.Buffer
	line, err := json.Marshal(envLine{r.env})
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "%s\n", line)
	fmt.Fprintf(&b, "# %s: %d requests (%d failed), %s caches, seed %d, %d cores\n",
		r.env.Workload, r.attempted, r.failed, r.env.Cache, r.env.Seed, r.env.NProc)
	res := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, v := range r.values {
		fmt.Fprintf(&b, "%-34s %14.6g %s\n", v.name, v.v, v.unit)
		res.Metrics[v.name] = metricValue{v.v, v.unit}
	}
	if r.notes != "" {
		fmt.Fprintf(&b, "# %s\n", r.notes)
	}
	if r.rec != nil {
		r.writeLayerTable(&b)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "%s\n", line)
	_, err = w.Write(b.Bytes())
	return err
}

// writeLayerTable prints each layer's median self time per traced
// request, and its share of request time.
func (r *report) writeLayerTable(w *bytes.Buffer) {
	self := r.rec.selfTimes()
	perReq := map[string]map[int]time.Duration{}
	var total time.Duration
	for i, s := range r.rec.spans {
		if r.rec.spans[s.root].name != "request" {
			continue
		}
		if perReq[s.name] == nil {
			perReq[s.name] = map[int]time.Duration{}
		}
		perReq[s.name][s.req] += self[i]
		if s.parent < 0 {
			total += s.dur()
		}
	}
	fmt.Fprintf(w, "# %-22s %12s %8s\n", "layer", "self_ms_p50", "share")
	for _, name := range slices.Sorted(maps.Keys(perReq)) {
		var ms []float64
		var sum time.Duration
		for _, d := range perReq[name] {
			ms = append(ms, float64(d.Nanoseconds())/1e6)
			sum += d
		}
		fmt.Fprintf(w, "# %-22s %12.4f %8.4f\n", name, percentile(ms, 50), ratio(sum.Seconds(), total.Seconds()))
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: plan-random, plan-cnn, fleet or sweep")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 25, "how long to serve requests")
	trace := flag.Int("trace", 0, "1 runs the traced pass, which reports per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	compareMode := flag.Bool("compare", false, "compare the result files named as arguments, with the bounds in ./BENCHMARK.json, instead of running")
	flag.Parse()

	if *compareMode {
		code, err := compare("BENCHMARK.json", flag.Args(), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(code)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	r, err := run(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}, os.Stderr)
	if err == nil && *traceOut != "" {
		if r.rec == nil {
			err = errors.New("-trace-out needs -trace 1")
		} else {
			err = r.rec.writeChrome(*traceOut)
		}
	}
	if err == nil {
		err = r.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
