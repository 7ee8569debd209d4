// Command hios-benchdiff checks `go test -bench` output against the
// benchmark ledger, BENCH_ledger.json at the repository root.
//
// The ledger gives each tracked benchmark its ns/op and allocs/op (and,
// where a bound needs it, B/op) at named checkpoints and the bounds it
// must stay within. A bound caps the ratio of a reading to one
// checkpoint's value — ratios, because CI runners differ in absolute
// speed while allocation counts, allocated bytes and relative regressions
// are stable. The ledger's default_bound covers every entry
// with a value at its checkpoint; an entry's own bounds lock specific wins.
//
//	go test -bench=. -benchtime=100ms -benchmem ./... | tee bench.txt
//	hios-benchdiff bench.txt bench_gate.txt
//
// checks every reading of a ledger benchmark against every bound on its
// entry, prints one table with a geometric-mean row per checkpoint, and
// exits 1 on any violation. A bound no reading checks is a violation, so
// a renamed benchmark cannot drop its lock silently, and any rise from a
// zero baseline exceeds every bound. Benchmarks without an entry, or
// with an entry that carries no bound, are reported only. `hios-benchdiff -record seed bench.txt bench_gate.txt`
// rewrites one checkpoint's history instead; the later input wins.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// modulePrefix is stripped from `pkg:` lines so keys read
// "internal/...Benchmark..."; the root package keeps its full path.
const modulePrefix = "github.com/shus-lab/hios/"

// measure is one benchmark's numbers. AllocsPerOp and BytesPerOp are
// pointers so output recorded without -benchmem stays absent rather than
// zero.
type measure struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// bound caps the ratios of a reading to the value at checkpoint Vs; a
// zero cap leaves that metric unbounded.
type bound struct {
	Vs     string  `json:"vs"`
	Ns     float64 `json:"ns,omitempty"`
	Allocs float64 `json:"allocs,omitempty"`
	Bytes  float64 `json:"bytes,omitempty"`
}

type benchmark struct {
	Note    string             `json:"note,omitempty"`
	History map[string]measure `json:"history"`
	Bounds  []bound            `json:"bounds,omitempty"`
}

type environment struct {
	Go         string `json:"go"`
	Cores      int    `json:"cores,omitempty"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Recorded   string `json:"recorded,omitempty"`
}

type checkpoint struct {
	Comment     string      `json:"comment"`
	Environment environment `json:"environment"`
}

type ledger struct {
	Comment      string                `json:"comment"`
	DefaultBound bound                 `json:"default_bound"`
	Checkpoints  map[string]checkpoint `json:"checkpoints"`
	Benchmarks   map[string]benchmark  `json:"benchmarks"`
}

// input is one file of benchmark output: the last reading of each
// benchmark in it, keyed like the ledger.
type input struct {
	name     string
	readings map[string]reading
}

type reading struct {
	measure
	procs int // GOMAXPROCS, from the -N name suffix
}

func main() {
	ledgerPath := flag.String("ledger", "BENCH_ledger.json", "the benchmark ledger")
	record := flag.String("record", "", "rewrite this checkpoint's history from the inputs instead of checking them")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hios-benchdiff [-ledger BENCH_ledger.json] [-record checkpoint] bench.txt [bench_gate.txt ...]")
		os.Exit(2)
	}
	failed, err := run(*ledgerPath, *record, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "hios-benchdiff:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func run(ledgerPath, record string, paths []string) (failed bool, err error) {
	l, err := load(ledgerPath)
	if err != nil {
		return false, err
	}
	inputs := make([]input, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if inputs[i], err = parse(p, string(data)); err != nil {
			return false, err
		}
	}
	if record != "" {
		if err := l.record(record, inputs); err != nil {
			return false, err
		}
		return false, save(ledgerPath, l)
	}
	w := bufio.NewWriter(os.Stdout)
	failed = report(w, l, inputs, check(l, inputs))
	return failed, w.Flush()
}

func load(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func save(path string, l *ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkSchedulerIOS-4   1   342293352 ns/op   4667 allocs/op
//
// The first capture is the name (with the optional -N GOMAXPROCS suffix
// still attached), the rest of the line holds the measurements.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func parse(name, text string) (input, error) {
	in := input{name: name, readings: make(map[string]reading)}
	pkg := ""
	for line := range strings.Lines(text) {
		line = strings.TrimSpace(line)
		if after, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimPrefix(strings.TrimSpace(after), modulePrefix)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key, procs := m[1], 1
		// go test appends -N to the name when GOMAXPROCS is N != 1.
		if i := strings.LastIndexByte(key, '-'); i > 0 {
			if n, err := strconv.Atoi(key[i+1:]); err == nil {
				key, procs = key[:i], n
			}
		}
		meas, ok := parseMeasurements(m[2])
		if !ok {
			continue
		}
		if pkg != "" {
			key = pkg + "." + key
		}
		in.readings[key] = reading{meas, procs}
	}
	if len(in.readings) == 0 {
		return in, fmt.Errorf("no benchmark results found in %s", name)
	}
	return in, nil
}

// parseMeasurements extracts ns/op, B/op and allocs/op from the tail of
// a benchmark line ("342293352 ns/op  196751680 B/op  4667 allocs/op").
func parseMeasurements(tail string) (measure, bool) {
	fields := strings.Fields(tail)
	var m measure
	seen := false
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			continue
		}
		switch fields[i] {
		case "ns/op":
			m.NsPerOp, seen = v, true
		case "allocs/op":
			m.AllocsPerOp = &v
		case "B/op":
			m.BytesPerOp = &v
		}
	}
	return m, seen
}

// record sets checkpoint cp's history from the inputs, later inputs
// overwriting earlier ones, and its environment from the readings.
func (l *ledger) record(cp string, inputs []input) error {
	c, ok := l.Checkpoints[cp]
	if !ok {
		return fmt.Errorf("unknown checkpoint %q", cp)
	}
	procs := readingProcs(inputs)
	if len(procs) != 1 {
		return fmt.Errorf("readings ran at GOMAXPROCS %v; record one core count at a time", procs)
	}
	c.Environment = environment{Go: runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH, Gomaxprocs: procs[0]}
	l.Checkpoints[cp] = c
	for _, in := range inputs {
		for _, name := range slices.Sorted(maps.Keys(in.readings)) {
			e := l.Benchmarks[name]
			if e.History == nil {
				e.History = make(map[string]measure)
				l.Benchmarks[name] = e
			}
			e.History[cp] = in.readings[name].measure
		}
	}
	return nil
}

// readingProcs returns the distinct GOMAXPROCS values of all readings.
func readingProcs(inputs []input) []int {
	var procs []int
	for _, in := range inputs {
		for _, r := range in.readings {
			procs = append(procs, r.procs)
		}
	}
	slices.Sort(procs)
	return slices.Compact(procs)
}

// row is one reading checked against one bound or, with input
// "(no reading)", a bounded metric that no reading checked. The allocs
// and bytes ratios are NaN where either side lacks allocs/op or B/op. A
// bound against a checkpoint the entry has no value at fails: ns rises
// from zero and allocs and bytes go unchecked.
type row struct {
	bench, input                  string
	b                             bound
	ns, allocs, bytes             float64
	nsFail, allocsFail, bytesFail bool
}

// bounds returns the bounds entry e is checked against: the default
// bound when e has a value at its checkpoint, then e's own.
func (l *ledger) bounds(e benchmark) []bound {
	if _, ok := e.History[l.DefaultBound.Vs]; ok {
		return append([]bound{l.DefaultBound}, e.Bounds...)
	}
	return e.Bounds
}

func check(l *ledger, inputs []input) []row {
	var rows []row
	for _, name := range slices.Sorted(maps.Keys(l.Benchmarks)) {
		e := l.Benchmarks[name]
		for _, b := range l.bounds(e) {
			base := e.History[b.Vs]
			nsSeen, allocsSeen, bytesSeen := false, false, false
			for _, in := range inputs {
				r, ok := in.readings[name]
				if !ok {
					continue
				}
				rw := row{bench: name, input: in.name, b: b, ns: ratio(r.NsPerOp, base.NsPerOp), allocs: math.NaN(), bytes: math.NaN()}
				if r.AllocsPerOp != nil && base.AllocsPerOp != nil {
					rw.allocs = ratio(*r.AllocsPerOp, *base.AllocsPerOp)
					allocsSeen = true
				}
				if r.BytesPerOp != nil && base.BytesPerOp != nil {
					rw.bytes = ratio(*r.BytesPerOp, *base.BytesPerOp)
					bytesSeen = true
				}
				nsSeen = true
				rw.nsFail = b.Ns > 0 && rw.ns > b.Ns
				rw.allocsFail = b.Allocs > 0 && rw.allocs > b.Allocs
				rw.bytesFail = b.Bytes > 0 && rw.bytes > b.Bytes
				rows = append(rows, rw)
			}
			missNs, missAllocs, missBytes := b.Ns > 0 && !nsSeen, b.Allocs > 0 && !allocsSeen, b.Bytes > 0 && !bytesSeen
			if missNs || missAllocs || missBytes {
				rows = append(rows, row{bench: name, input: "(no reading)", b: b, ns: math.NaN(), allocs: math.NaN(), bytes: math.NaN(),
					nsFail: missNs, allocsFail: missAllocs, bytesFail: missBytes})
			}
		}
	}
	return rows
}

// ratio returns n/o. Against a zero baseline any rise is +Inf, so a
// 0 -> 1 allocs/op regression exceeds every bound; 0 vs 0 never moved.
func ratio(n, o float64) float64 {
	if n == 0 && o == 0 { //lint:floatexact exact zeros: allocs/op counts are integers
		return 1
	}
	return n / o
}

// report prints the core counts, then one section per checkpoint with a
// geometric-mean row, then the benchmarks no bound checks: those without
// a ledger entry and the entries kept for their note alone. It
// returns whether any bound was violated.
func report(w io.Writer, l *ledger, inputs []input, rows []row) (failed bool) {
	procs := readingProcs(inputs)
	fmt.Fprintf(w, "readings at gomaxprocs %v; checkpoints at", procs)
	differ := len(procs) != 1
	cps := slices.Sorted(maps.Keys(l.Checkpoints))
	for _, cp := range cps {
		p := l.Checkpoints[cp].Environment.Gomaxprocs
		fmt.Fprintf(w, " %s %d", cp, p)
		differ = differ || p != procs[0]
	}
	fmt.Fprintln(w)
	if differ {
		fmt.Fprintln(w, "cores differ: ratios compare readings and checkpoints taken at different GOMAXPROCS (reported, not refused)")
	}
	violations := 0
	for _, cp := range cps {
		fmt.Fprintf(w, "\n%4s %-56s %-16s %-14s %-14s %s\n", "", "vs "+cp, "input", "ns ratio", "allocs ratio", "bytes ratio")
		var nsLog, allocsLog float64
		nsN, allocsN := 0, 0
		for _, r := range rows {
			if r.b.Vs != cp {
				continue
			}
			verdict := ""
			if r.nsFail || r.allocsFail || r.bytesFail {
				violations++
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%4s %-56s %-16s %-14s %-14s %s\n", verdict, r.bench, r.input,
				cell(r.ns, r.b.Ns, r.nsFail), cell(r.allocs, r.b.Allocs, r.allocsFail), cell(r.bytes, r.b.Bytes, r.bytesFail))
			if r.ns > 0 && !math.IsInf(r.ns, 1) {
				nsLog += math.Log(r.ns)
				nsN++
			}
			if r.allocs > 0 && !math.IsInf(r.allocs, 1) {
				allocsLog += math.Log(r.allocs)
				allocsN++
			}
		}
		fmt.Fprintf(w, "%4s %-56s %-16s %-14s %s\n", "", fmt.Sprintf("geomean (%d readings)", nsN), "",
			cell(math.Exp(nsLog/float64(nsN)), 0, false), cell(math.Exp(allocsLog/float64(allocsN)), 0, false))
	}
	fmt.Fprintln(w, "\nunbounded (report only)")
	for _, in := range inputs {
		for _, name := range slices.Sorted(maps.Keys(in.readings)) {
			if e, ok := l.Benchmarks[name]; !ok || len(l.bounds(e)) == 0 {
				fmt.Fprintf(w, "%4s %-56s %-16s %.0f ns/op\n", "", name, in.name, in.readings[name].NsPerOp)
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(w, "\nFAIL: %d rows break a bound\n", violations)
	}
	return violations > 0
}

// cell renders a ratio against its cap ("1.790 > 1.25" when it fails).
func cell(r, max float64, fail bool) string {
	switch {
	case math.IsNaN(r) && fail:
		return "unchecked"
	case math.IsNaN(r):
		return "--"
	case max == 0: //lint:floatexact a zero cap is the unset field
		return fmt.Sprintf("%.3f", r)
	case fail:
		return fmt.Sprintf("%.3f > %.2f", r, max)
	}
	return fmt.Sprintf("%.3f <= %.2f", r, max)
}
