package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/lint"
	"github.com/shus-lab/hios/internal/lint/analysis"
	"github.com/shus-lab/hios/internal/lint/linttest"
)

// Each fixture package mixes violations (marked `// want`) with clean
// counterparts, so one run proves the analyzer both fires on the bad
// code and stays quiet on the good. The asPath argument places the
// fixture inside the analyzer's package scope.

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "testdata/maporder", lint.ModulePath+"/internal/sched/fixture")
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, lint.FloatCmp, "testdata/floatcmp", lint.ModulePath+"/internal/cost/fixture")
}

func TestDetClock(t *testing.T) {
	linttest.Run(t, lint.DetClock, "testdata/detclock", lint.ModulePath+"/internal/sim/fixture")
}

// The determinism analyzers cover internal/mpi and internal/randdag:
// mpi runs on an injected Clock and randdag on a seeded generator, so
// the same fixtures must fire in full under those package paths too.
// This pins the scope — removing either path from an analyzer's list
// fails the unmatched want comments here.
func TestDeterminismScopeCoversMPIAndRandDAG(t *testing.T) {
	for _, pkg := range []string{"internal/mpi", "internal/randdag"} {
		t.Run(pkg, func(t *testing.T) {
			linttest.Run(t, lint.DetClock, "testdata/detclock", lint.ModulePath+"/"+pkg+"/fixture")
			linttest.Run(t, lint.SeedFlow, "testdata/seedflow", lint.ModulePath+"/"+pkg+"/fixture")
			linttest.Run(t, lint.PubAPI, "testdata/pubapioptions", lint.ModulePath+"/"+pkg+"/fixture")
		})
	}
}

// internal/dpcache holds the process's one shared cache and its
// double-checked insert, so the lock, map-order and float checks must
// cover it. Removing it from a scope fails the unmatched want comments
// here.
func TestDPCacheScope(t *testing.T) {
	const pkg = lint.ModulePath + "/internal/dpcache/fixture"
	linttest.Run(t, lint.LockSafe, "testdata/locksafe", pkg)
	linttest.Run(t, lint.MapOrder, "testdata/maporder", pkg)
	linttest.Run(t, lint.FloatCmp, "testdata/floatcmp", pkg)
}

// internal/eventq holds the (time, sequence) queue both event engines
// pop from, so the determinism and unit checks covering sim and cluster
// must cover it too. Removing it from a scope fails the unmatched want
// comments here.
func TestEventQScope(t *testing.T) {
	const pkg = lint.ModulePath + "/internal/eventq/fixture"
	linttest.Run(t, lint.DetClock, "testdata/detclock", pkg)
	linttest.Run(t, lint.FloatCmp, "testdata/floatcmp", pkg)
	linttest.Run(t, lint.MapOrder, "testdata/maporder", pkg)
	linttest.Run(t, lint.UnitFlow, "testdata/unitflow", pkg)
}

func TestPubAPI(t *testing.T) {
	linttest.Run(t, lint.PubAPI, "testdata/pubapi", lint.ModulePath+"/cmd/fixture")
}

// The options rule is module-wide: an exported *Options struct without a
// Validate method is flagged wherever it is declared.
func TestPubAPIOptions(t *testing.T) {
	linttest.Run(t, lint.PubAPI, "testdata/pubapioptions", lint.ModulePath+"/internal/cluster/fixture")
}

func TestUnitFlow(t *testing.T) {
	linttest.Run(t, lint.UnitFlow, "testdata/unitflow", lint.ModulePath+"/internal/cost/fixture")
}

// sharedcapture is unscoped — a parallel worker racing on captured state
// is wrong in any package — so its fixture loads under an arbitrary path.
func TestSharedCapture(t *testing.T) {
	linttest.Run(t, lint.SharedCapture, "testdata/sharedcapture", lint.ModulePath+"/internal/experiments/fixture")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/hotalloc", lint.ModulePath+"/internal/sched/fixture")
}

// Cross-package propagation: the dep fixture package carries no
// annotation at all — its want comments only fire when the Module hook
// carries hotness over from the caller package's root, including through
// a chain of two cross-package hops.
func TestHotAllocCrossPackage(t *testing.T) {
	linttest.RunModule(t, lint.HotAlloc, []linttest.PackageSpec{
		{Dir: "testdata/hotallocmod/dep", AsPath: lint.ModulePath + "/internal/fixture/hotallocmod/dep"},
		{Dir: "testdata/hotallocmod/caller", AsPath: lint.ModulePath + "/internal/fixture/hotallocmod/caller"},
	})
}

// Without the Module hook (single-package drivers: vet units, fixture
// runs), the dep package has no roots of its own and must stay silent —
// the degraded mode documented on HotAlloc.
func TestHotAllocCrossPackageFallback(t *testing.T) {
	_, _, got := linttest.Diagnostics(t, lint.HotAlloc, "testdata/hotallocmod/dep", lint.ModulePath+"/internal/fixture/hotallocmod/dep")
	if len(got) != 0 {
		t.Fatalf("dep fixture fired %d diagnostics without module data (first: %s)", len(got), got[0].Message)
	}
}

// Over the real module, the scheduler helpers that PRs 6-7 annotated by
// hand must now be hot purely by propagation from the genuine roots
// (lp.Schedule, mr.Schedule, window.Parallelize, ios.solveBlock): their
// hand-placed //lint:hotpath annotations were removed when propagation
// learned to cross packages, and this test pins that none of them fell
// out of the hot set. A handful of public entry points keep their own
// annotation because no static in-module hot caller exists (hot code uses
// PathFinder.Find / Closure probes / the incremental evaluators
// directly); those must attribute to themselves, proving they are roots,
// not propagated.
func TestCrossPackageHotPropagationRealModule(t *testing.T) {
	pkgs, err := analysis.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	hot := lint.HotFunctions(pkgs)
	for _, key := range []string{
		"internal/graph.PathFinder.Find",
		"internal/graph.Graph.PriorityIndicators",
		"internal/sched.Evaluator.Latency",
		"internal/sched.Evaluator.LatencyFromPlacement",
		"internal/sched.Schedule.CompactClone",
		"internal/sched.FromPlacement",
		"internal/sched.FuseEvaluator.TrialFuse",
		"internal/sched.FuseEvaluator.CommitFuse",
		"internal/sched.InsertEvaluator.TrialInsert",
		"internal/sched.InsertEvaluator.CommitInsert",
	} {
		root, ok := hot[key]
		if !ok {
			t.Errorf("%s is no longer hot: cross-package propagation lost a de-annotated helper", key)
			continue
		}
		if root == key {
			t.Errorf("%s attributes to itself: expected it to be hot via propagation, not a hand-placed root", key)
		}
	}
	// Entry points with no static in-module hot caller stay annotated and
	// attribute to themselves.
	for _, key := range []string{
		"internal/graph.Graph.LongestValidPath",
		"internal/graph.Graph.Reachable",
		"internal/sched/lp.Schedule",
	} {
		if root := hot[key]; root != key {
			t.Errorf("%s root attribution = %q, want itself", key, root)
		}
	}
}

// TestLockSafe loads the fixture under internal/profile, whose table
// guards its maps and segments with one RWMutex; TestDPCacheScope covers
// internal/dpcache.
func TestLockSafe(t *testing.T) {
	linttest.Run(t, lint.LockSafe, "testdata/locksafe", lint.ModulePath+"/internal/profile/fixture")
}

func TestSeedFlow(t *testing.T) {
	linttest.Run(t, lint.SeedFlow, "testdata/seedflow", lint.ModulePath+"/internal/randdag/fixture")
}

// seedflow sanctions internal/stats as the home of seed mixing: the same
// fixture loaded there keeps only the global-generator findings (rules 2
// and 3 are stats-exempt; rule 1 holds module-wide).
func TestSeedFlowStatsExemption(t *testing.T) {
	_, _, got := linttest.Diagnostics(t, lint.SeedFlow, "testdata/seedflow", lint.ModulePath+"/internal/stats/fixture")
	for _, d := range got {
		if !strings.Contains(d.Message, "global rand.") {
			t.Errorf("non-global finding inside internal/stats: %s", d.Message)
		}
	}
	if len(got) != 3 {
		t.Errorf("want the 3 unsuppressed global-generator findings inside internal/stats, got %d", len(got))
	}
}

// The analyzers are scoped by package path; the same fixture code loaded
// under an out-of-scope import path must yield zero diagnostics.
func TestScopeBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		a       *analysis.Analyzer
		dir     string
		outside string
	}{
		{"maporder", lint.MapOrder, "testdata/maporder", lint.ModulePath + "/internal/trace"},
		{"floatcmp", lint.FloatCmp, "testdata/floatcmp", lint.ModulePath + "/internal/stats"},
		{"detclock", lint.DetClock, "testdata/detclock", lint.ModulePath + "/internal/runtime"},
		{"pubapi", lint.PubAPI, "testdata/pubapi", lint.ModulePath + "/internal/experiments"},
		// The options rule exempts the lint tooling itself and anything
		// outside the module.
		{"pubapi-options-lint", lint.PubAPI, "testdata/pubapioptions", lint.ModulePath + "/internal/lint/fixture"},
		{"pubapi-options-foreign", lint.PubAPI, "testdata/pubapioptions", "example.com/outside/fixture"},
		{"unitflow", lint.UnitFlow, "testdata/unitflow", lint.ModulePath + "/internal/stats"},
		// hotalloc and seedflow are module-wide; out-of-module paths are
		// the boundary — hotpath propagation and seed rules never cross it.
		{"hotalloc", lint.HotAlloc, "testdata/hotalloc", "example.com/outside/fixture"},
		{"seedflow", lint.SeedFlow, "testdata/seedflow", "example.com/outside/fixture"},
		// locksafe is scoped to the mutex-bearing packages; the same
		// fixture loaded elsewhere in the module stays silent.
		{"locksafe", lint.LockSafe, "testdata/locksafe", lint.ModulePath + "/internal/sched"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, got := linttest.Diagnostics(t, tc.a, tc.dir, tc.outside)
			if len(got) != 0 {
				t.Fatalf("%s fired %d diagnostics outside its scope (first: %s)", tc.name, len(got), got[0].Message)
			}
		})
	}
}

func TestSuiteListsAllAnalyzers(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely declared", a)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"maporder", "floatcmp", "detclock", "pubapi", "unitflow", "sharedcapture", "hotalloc", "seedflow", "locksafe"} {
		if !names[want] {
			t.Fatalf("suite is missing %s (have %v)", want, names)
		}
	}
}

// Every suppression directive in production code must carry an inline
// justification (hotpath is an annotation, not a suppression — its
// rationale lives in the function's doc comment), and the module-wide
// count per directive is pinned: adding a suppression is a reviewed
// decision that has to touch this table, not something that slips in.
func TestSuppressionBudget(t *testing.T) {
	want := map[string]int{
		"floatexact": 9, // comparator tie-breaks, unset-option sentinels, 0-vs-0 benchmark baselines, queue-point dedupe
		"seedflow":   3, // ios dp.go zobrist splitmix64 stream constants
		"locksafe":   0, // none: profile.Export sizes its snapshot outside the lock
		"hotpath":    9, // scheduler and serving entry-point roots (propagation covers the rest)
	}
	got := map[string]int{}
	dirRe := regexp.MustCompile(`^//lint:([a-z]+)(.*)$`)
	root := "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// internal/lint's fixtures and tests exercise the
			// directives deliberately; everything else counts.
			if name == "testdata" || name == ".git" || path == filepath.Join(root, "internal", "lint") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := dirRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				directive, justification := m[1], strings.TrimSpace(m[2])
				got[directive]++
				if directive != "hotpath" && justification == "" {
					t.Errorf("%s: bare //lint:%s without justification", fset.Position(c.Pos()), directive)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for directive, n := range want {
		if got[directive] != n {
			t.Errorf("module-wide //lint:%s count = %d, want %d (update the pin only with the suppression's justification reviewed)", directive, got[directive], n)
		}
	}
	for directive, n := range got {
		if _, ok := want[directive]; !ok {
			t.Errorf("unpinned directive //lint:%s appears %d time(s); add it to the budget table", directive, n)
		}
	}
}

// Selection feeds hios-lint's -only/-skip flags: registry order is
// preserved, unknown names are errors (a typo must not silently run the
// wrong subset), and the two flags are mutually exclusive.
func TestSelect(t *testing.T) {
	names := func(as []*analysis.Analyzer) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}
	full := names(lint.Suite())

	got, err := lint.Select("", "")
	if err != nil || !equalStrings(names(got), full) {
		t.Errorf("Select(\"\",\"\") = %v, %v; want full suite", names(got), err)
	}
	got, err = lint.Select("locksafe, maporder", "")
	if err != nil || !equalStrings(names(got), []string{"maporder", "locksafe"}) {
		t.Errorf("Select(only) = %v, %v; want [maporder locksafe] in registry order", names(got), err)
	}
	got, err = lint.Select("", "hotalloc,seedflow")
	if err != nil {
		t.Fatalf("Select(skip): %v", err)
	}
	for _, n := range names(got) {
		if n == "hotalloc" || n == "seedflow" {
			t.Errorf("Select(skip) kept %s", n)
		}
	}
	if len(got) != len(full)-2 {
		t.Errorf("Select(skip) dropped %d analyzers, want 2", len(full)-len(got))
	}
	for _, bad := range []struct{ only, skip string }{
		{"nosuch", ""},
		{"", "nosuch"},
		{"maporder", "floatcmp"},
		{",", ""},
	} {
		if _, err := lint.Select(bad.only, bad.skip); err == nil {
			t.Errorf("Select(%q, %q) succeeded, want error", bad.only, bad.skip)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The registry's directive column is what the usage text prints; keep it
// consistent with what each analyzer actually honors.
func TestDirectives(t *testing.T) {
	cases := map[string]string{
		"maporder":      "ordered",
		"floatcmp":      "floatexact",
		"detclock":      "",
		"pubapi":        "",
		"unitflow":      "unitless",
		"sharedcapture": "sharedcapture",
		"hotalloc":      "hotalloc",
		"seedflow":      "seedflow",
		"locksafe":      "locksafe",
	}
	for name, want := range cases {
		if got := lint.Directive(name); got != want {
			t.Errorf("Directive(%q) = %q, want %q", name, got, want)
		}
	}
	if got := lint.Directive("nosuch"); got != "" {
		t.Errorf("Directive(nosuch) = %q, want empty", got)
	}
}
