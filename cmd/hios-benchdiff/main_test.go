package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testLedger holds one benchmark per kind of bound: the default bound
// alone (Seed, Zero, Root), a checkpoint bound on both metrics (Pre), an
// allocs-only checkpoint bound (Lean) and a bytes-only one (Heavy).
const testLedger = `{
  "default_bound": {"vs": "seed", "ns": 1.25, "allocs": 1.15},
  "checkpoints": {
    "seed": {"environment": {"go": "go1.24.0 linux/amd64", "gomaxprocs": 1}},
    "pre":  {"environment": {"go": "go1.24.0 linux/amd64", "gomaxprocs": 1}},
    "lean": {"environment": {"go": "go1.24.0 linux/amd64", "gomaxprocs": 1}}
  },
  "benchmarks": {
    "internal/experiments.BenchmarkSeed": {"history": {"seed": {"ns_per_op": 100, "allocs_per_op": 10}}},
    "internal/experiments.BenchmarkPre": {
      "history": {"seed": {"ns_per_op": 100, "allocs_per_op": 10}, "pre": {"ns_per_op": 200, "allocs_per_op": 5}},
      "bounds": [{"vs": "pre", "ns": 0.5, "allocs": 1.3}]
    },
    "internal/experiments.BenchmarkLean": {
      "history": {"seed": {"ns_per_op": 100, "allocs_per_op": 10}, "lean": {"ns_per_op": 100, "allocs_per_op": 40}},
      "bounds": [{"vs": "lean", "allocs": 0.2}]
    },
    "internal/experiments.BenchmarkHeavy": {
      "history": {"pre": {"ns_per_op": 100, "allocs_per_op": 5, "bytes_per_op": 2048}},
      "bounds": [{"vs": "pre", "bytes": 0.5}]
    },
    "internal/graph.BenchmarkZero": {"history": {"seed": {"ns_per_op": 3, "allocs_per_op": 0}}},
    "github.com/shus-lab/hios.BenchmarkRoot": {"history": {"seed": {"ns_per_op": 1000, "allocs_per_op": 5}}}
  }
}`

// benchOutput renders `go test -bench` output at GOMAXPROCS 2 for the
// given ledger key -> {ns/op, allocs/op, B/op} readings.
func benchOutput(readings map[string][3]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\n")
	for _, key := range slices.Sorted(maps.Keys(readings)) {
		i := strings.LastIndexByte(key, '.')
		pkg := key[:i]
		if !strings.HasPrefix(pkg, "github.com/") {
			pkg = modulePrefix + pkg
		}
		r := readings[key]
		fmt.Fprintf(&b, "pkg: %s\ncpu: test\n", pkg)
		fmt.Fprintf(&b, "%s-2   \t     100\t%12g ns/op\t%8g B/op\t%8g allocs/op\nPASS\n", key[i+1:], r[0], r[2], r[1])
	}
	return b.String()
}

// passing reads under every bound of testLedger.
func passing() map[string][3]float64 {
	return map[string][3]float64{
		"internal/experiments.BenchmarkSeed":  {100, 10},
		"internal/experiments.BenchmarkPre":   {90, 5},
		"internal/experiments.BenchmarkLean":  {100, 6},
		"internal/experiments.BenchmarkHeavy": {100, 5, 1000},
		"internal/graph.BenchmarkZero":        {3, 0},
		// The root package's pkg: line is the bare module path.
		"github.com/shus-lab/hios.BenchmarkRoot": {1000, 5},
	}
}

func loadTestLedger(t *testing.T) *ledger {
	t.Helper()
	l, err := load(writeFile(t, "ledger.json", testLedger))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// failures lists the violated checks as "bench vs checkpoint metric",
// with the package path dropped.
func failures(rows []row) []string {
	var out []string
	for _, r := range rows {
		name := r.bench[strings.LastIndexByte(r.bench, '.')+1:]
		if r.nsFail {
			out = append(out, name+" vs "+r.b.Vs+" ns")
		}
		if r.allocsFail {
			out = append(out, name+" vs "+r.b.Vs+" allocs")
		}
		if r.bytesFail {
			out = append(out, name+" vs "+r.b.Vs+" bytes")
		}
	}
	slices.Sort(out)
	return out
}

func TestCheck(t *testing.T) {
	l := loadTestLedger(t)
	cases := []struct {
		name   string
		edit   func(map[string][3]float64) // applied to the second input
		single bool                        // check the edited input alone
		want   []string
	}{
		{name: "under every bound", edit: func(map[string][3]float64) {}},
		{name: "ns over the default bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkSeed"] = [3]float64{130, 10} },
			want: []string{"BenchmarkSeed vs seed ns"}},
		{name: "allocs over the default bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkSeed"] = [3]float64{100, 12} },
			want: []string{"BenchmarkSeed vs seed allocs"}},
		{name: "ns over a checkpoint bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkPre"] = [3]float64{110, 5} },
			want: []string{"BenchmarkPre vs pre ns"}},
		{name: "allocs over a checkpoint bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkPre"] = [3]float64{90, 7} },
			want: []string{"BenchmarkPre vs pre allocs"}},
		{name: "allocs over an allocs-only bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkLean"] = [3]float64{100, 9} },
			want: []string{"BenchmarkLean vs lean allocs"}},
		{name: "bytes over a bytes-only bound", edit: func(m map[string][3]float64) { m["internal/experiments.BenchmarkHeavy"] = [3]float64{100, 5, 1100} },
			want: []string{"BenchmarkHeavy vs pre bytes"}},
		{name: "rise from a zero-alloc baseline", edit: func(m map[string][3]float64) { m["internal/graph.BenchmarkZero"] = [3]float64{3, 1} },
			want: []string{"BenchmarkZero vs seed allocs"}},
		{name: "root-package key", edit: func(m map[string][3]float64) { m["github.com/shus-lab/hios.BenchmarkRoot"] = [3]float64{2000, 5} },
			want: []string{"BenchmarkRoot vs seed ns"}},
		{name: "reading in another input still checks the bound", edit: func(m map[string][3]float64) { delete(m, "internal/experiments.BenchmarkPre") }},
		{name: "missing reading", single: true, edit: func(m map[string][3]float64) { delete(m, "internal/experiments.BenchmarkPre") },
			want: []string{"BenchmarkPre vs pre allocs", "BenchmarkPre vs pre ns", "BenchmarkPre vs seed allocs", "BenchmarkPre vs seed ns"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edited := passing()
			tc.edit(edited)
			var inputs []input
			for i, readings := range []map[string][3]float64{passing(), edited} {
				if tc.single && i == 0 {
					continue
				}
				in, err := parse(fmt.Sprintf("bench%d.txt", i), benchOutput(readings))
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, in)
			}
			rows := check(l, inputs)
			if got := failures(rows); !slices.Equal(got, tc.want) {
				t.Errorf("violations = %q, want %q", got, tc.want)
			}
			if failed := report(io.Discard, l, inputs, rows); failed != (len(tc.want) > 0) {
				t.Errorf("report failed = %v, want %v", failed, len(tc.want) > 0)
			}
		})
	}
}

// TestReportListsUnbounded checks that a reading no bound checks is
// still printed: a benchmark with no ledger entry and one whose entry
// has neither a default-checkpoint value nor bounds of its own.
func TestReportListsUnbounded(t *testing.T) {
	l := loadTestLedger(t)
	l.Benchmarks["internal/eventq.BenchmarkNoted"] = benchmark{Note: "report-only", History: map[string]measure{}}
	readings := passing()
	readings["internal/eventq.BenchmarkNoted"] = [3]float64{85, 0}
	readings["internal/eventq.BenchmarkUntracked"] = [3]float64{95, 0}
	in, err := parse("bench.txt", benchOutput(readings))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if failed := report(&out, l, []input{in}, check(l, []input{in})); failed {
		t.Fatalf("report failed:\n%s", out.String())
	}
	_, tail, _ := strings.Cut(out.String(), "unbounded (report only)")
	for _, name := range []string{"BenchmarkNoted", "BenchmarkUntracked"} {
		if !strings.Contains(tail, name) {
			t.Errorf("%s missing from the report-only section:\n%s", name, out.String())
		}
	}
	if strings.Contains(tail, "BenchmarkSeed") {
		t.Errorf("bounded BenchmarkSeed listed as report-only:\n%s", out.String())
	}
}

func TestParseStripsProcsSuffix(t *testing.T) {
	in, err := parse("b.txt", "pkg: github.com/shus-lab/hios/internal/sched\n"+
		"BenchmarkA-16   \t 10\t 5 ns/op\t 1 allocs/op\n"+
		"BenchmarkB      \t 10\t 7 ns/op\n")
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.readings["internal/sched.BenchmarkA"], in.readings["internal/sched.BenchmarkB"]
	if a.procs != 16 || a.NsPerOp != 5 || a.AllocsPerOp == nil || *a.AllocsPerOp != 1 {
		t.Errorf("BenchmarkA-16 parsed as %+v", a)
	}
	if b.procs != 1 || b.NsPerOp != 7 || b.AllocsPerOp != nil {
		t.Errorf("BenchmarkB parsed as %+v", b)
	}
}

// TestParseIgnoresCustomMetrics pins that b.ReportMetric columns (the
// engine benchmarks' events/op and ns/event) leave a line's ledger
// reading unchanged: ns/event must not be taken for ns/op.
func TestParseIgnoresCustomMetrics(t *testing.T) {
	const plain = "BenchmarkClusterServe-2   \t      10\t   2853814 ns/op\t  905510 B/op\t     155 allocs/op\n"
	const extra = "BenchmarkClusterServe-2   \t      10\t   2853814 ns/op\t     15937 events/op\t       179.1 ns/event\t  905510 B/op\t     155 allocs/op\n"
	read := func(line string) reading {
		in, err := parse("b.txt", "pkg: github.com/shus-lab/hios/internal/cluster\n"+line)
		if err != nil {
			t.Fatal(err)
		}
		return in.readings["internal/cluster.BenchmarkClusterServe"]
	}
	p, x := read(plain), read(extra)
	if x.NsPerOp != 2853814 || x.procs != 2 || x.AllocsPerOp == nil || *x.AllocsPerOp != 155 {
		t.Fatalf("line with custom metrics parsed as %+v", x)
	}
	if p.NsPerOp != x.NsPerOp || p.procs != x.procs || *p.AllocsPerOp != *x.AllocsPerOp {
		t.Errorf("custom metrics changed the reading: %+v without, %+v with", p, x)
	}
}

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecordLaterInputWins(t *testing.T) {
	path := writeFile(t, "ledger.json", testLedger)
	full := writeFile(t, "bench.txt", benchOutput(map[string][3]float64{
		"internal/experiments.BenchmarkSeed": {90, 9},
		"internal/experiments.BenchmarkNew":  {50, 1},
	}))
	gate := writeFile(t, "bench_gate.txt", benchOutput(map[string][3]float64{
		"internal/experiments.BenchmarkSeed": {80, 8},
	}))
	if _, err := run(path, "seed", []string{full, gate}); err != nil {
		t.Fatal(err)
	}
	l, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name       string
		ns, allocs float64
	}{
		{"internal/experiments.BenchmarkSeed", 80, 8}, // the later input
		{"internal/experiments.BenchmarkNew", 50, 1},
		{"internal/experiments.BenchmarkPre", 100, 10}, // not in the inputs: kept
	} {
		got := l.Benchmarks[want.name].History["seed"]
		if got.NsPerOp != want.ns || *got.AllocsPerOp != want.allocs {
			t.Errorf("%s seed = %v / %v, want %v / %v", want.name, got.NsPerOp, *got.AllocsPerOp, want.ns, want.allocs)
		}
	}
	if got := l.Benchmarks["internal/experiments.BenchmarkPre"].History["pre"].NsPerOp; got != 200 {
		t.Errorf("other checkpoint rewritten: pre ns = %v", got)
	}
	if p := l.Checkpoints["seed"].Environment.Gomaxprocs; p != 2 {
		t.Errorf("seed gomaxprocs = %d, want 2 from the -2 suffix", p)
	}
	if _, err := run(path, "nosuch", []string{full}); err == nil {
		t.Error("recording an unknown checkpoint succeeded")
	}
}

const committedLedger = "../../BENCH_ledger.json"

// TestLedgerBoundInventory pins every bound in the committed ledger, so
// dropping or loosening one fails here.
func TestLedgerBoundInventory(t *testing.T) {
	l, err := load(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	const x = "internal/experiments.Benchmark"
	want := map[string]struct {
		benches           []string
		ns, allocs, bytes float64
	}{
		"preincr":     {[]string{x + "SchedulerHIOSLP4GPUs", x + "WindowRefine"}, 0.5, 1.3, 0},
		"preprune":    {[]string{x + "SchedulerIOS", x + "SweepFig10FullWidth", x + "SweepFig10Width1"}, 0.5, 0.6, 0},
		"prelean":     {[]string{x + "SchedulerLP", x + "SchedulerMR", x + "WindowRefine"}, 0, 0.2, 0},
		"preprofmemo": {[]string{x + "SchedulerIOSNASNetProfiled", "internal/profile.BenchmarkStageTimeMiss"}, 0.85, 1.15, 0},
		"prereach":    {[]string{"internal/sched/ios.BenchmarkSolveNASNetCold"}, 0.85, 1.15, 0},
		"prebatch":    {[]string{x + "SchedulerIOSNASNetProfiled"}, 0.85, 0, 0.5},
		"presegment":  {[]string{x + "SchedulerIOSNASNetProfiled"}, 0, 1, 0.7},
	}
	if l.DefaultBound != (bound{Vs: "seed", Ns: 1.25, Allocs: 1.15}) {
		t.Errorf("default bound = %+v", l.DefaultBound)
	}
	seeded := 0
	got := map[string][]string{}
	for _, name := range slices.Sorted(maps.Keys(l.Benchmarks)) {
		e := l.Benchmarks[name]
		if _, ok := e.History["seed"]; ok {
			seeded++
		}
		for _, b := range e.Bounds {
			w, ok := want[b.Vs]
			if !ok || b.Ns != w.ns || b.Allocs != w.allocs || b.Bytes != w.bytes {
				t.Errorf("%s: bound %+v", name, b)
			}
			if _, ok := e.History[b.Vs]; !ok {
				t.Errorf("%s: bounded against %s with no value there", name, b.Vs)
			}
			got[b.Vs] = append(got[b.Vs], name)
		}
	}
	// The two preprofmemo entries and the prereach entry were never
	// measured at seed, and eventq's BenchmarkQueuePushPop and the two
	// dpcache probe benchmarks are report-only.
	if seeded != 50 || len(l.Benchmarks) != 56 {
		t.Errorf("%d of %d entries carry the seed bound, want 50 of 56", seeded, len(l.Benchmarks))
	}
	for _, cp := range slices.Sorted(maps.Keys(want)) {
		if !slices.Equal(got[cp], want[cp].benches) {
			t.Errorf("%s bounds on %q, want %q", cp, got[cp], want[cp].benches)
		}
	}
}

// TestLedgerBoundsFailAlone checks every committed bound fails on its
// own injected regression: readings just under every bound pass, and
// pushing one metric just past one bound fails exactly that check.
func TestLedgerBoundsFailAlone(t *testing.T) {
	l, err := load(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	// bounded mirrors check: the default bound covers entries with a
	// value at its checkpoint.
	bounded := func(e benchmark) []bound {
		if _, ok := e.History[l.DefaultBound.Vs]; !ok {
			return e.Bounds
		}
		return append([]bound{l.DefaultBound}, e.Bounds...)
	}
	// limit returns the largest reading of one metric all bounds allow.
	limit := func(e benchmark, metric func(measure, bound) (float64, float64)) float64 {
		lim := -1.0
		for _, b := range bounded(e) {
			if v, c := metric(e.History[b.Vs], b); c > 0 && (lim < 0 || v*c < lim) {
				lim = v * c
			}
		}
		return lim
	}
	nsOf := func(m measure, b bound) (float64, float64) { return m.NsPerOp, b.Ns }
	allocsOf := func(m measure, b bound) (float64, float64) { return *m.AllocsPerOp, b.Allocs }
	bytesOf := func(m measure, b bound) (float64, float64) {
		if b.Bytes == 0 {
			return 0, 0
		}
		return *m.BytesPerOp, b.Bytes
	}
	base := input{name: "bench.txt", readings: map[string]reading{}}
	for _, name := range slices.Sorted(maps.Keys(l.Benchmarks)) {
		e := l.Benchmarks[name]
		a := 0.99 * limit(e, allocsOf)
		r := reading{measure{NsPerOp: 0.99 * limit(e, nsOf), AllocsPerOp: &a}, 1}
		if by := limit(e, bytesOf); by > 0 {
			by *= 0.99
			r.BytesPerOp = &by
		}
		base.readings[name] = r
	}
	if got := failures(check(l, []input{base})); len(got) != 0 {
		t.Fatalf("readings under every bound fail: %q", got)
	}
	checks := 0
	for _, name := range slices.Sorted(maps.Keys(l.Benchmarks)) {
		e := l.Benchmarks[name]
		short := name[strings.LastIndexByte(name, '.')+1:]
		for _, b := range bounded(e) {
			h := e.History[b.Vs]
			for _, m := range []struct {
				metric string
				cap    float64
				set    func(*measure)
			}{
				{"ns", b.Ns, func(r *measure) { r.NsPerOp = 1.01 * b.Ns * h.NsPerOp }},
				{"allocs", b.Allocs, func(r *measure) { a := max(1.01*b.Allocs*(*h.AllocsPerOp), 1); r.AllocsPerOp = &a }},
				{"bytes", b.Bytes, func(r *measure) { by := 1.01 * b.Bytes * (*h.BytesPerOp); r.BytesPerOp = &by }},
			} {
				if m.cap == 0 {
					continue
				}
				checks++
				in := input{name: "bench.txt", readings: maps.Clone(base.readings)}
				r := in.readings[name]
				m.set(&r.measure)
				in.readings[name] = r
				want := short + " vs " + b.Vs + " " + m.metric
				if got := failures(check(l, []input{in})); !slices.Contains(got, want) {
					t.Errorf("injected %s: violations %q", want, got)
				}
			}
		}
	}
	// 50 seed entries x 2 metrics, 2x2 preincr, 3x2 preprune, 3 prelean,
	// 2x2 preprofmemo, 1x2 prereach, 1x2 prebatch (ns and bytes), 1x2
	// presegment (allocs and bytes).
	if checks != 100+4+6+3+4+2+2+2 {
		t.Errorf("%d bound checks, want 123", checks)
	}
}

// TestLedgerRoundTrip keeps the committed ledger in the exact form
// -record writes, so a re-record diffs only the numbers it changed.
func TestLedgerRoundTrip(t *testing.T) {
	l, err := load(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Error("BENCH_ledger.json is not in the form hios-benchdiff -record writes")
	}
}
