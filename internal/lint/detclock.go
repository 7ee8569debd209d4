package lint

import (
	"go/ast"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// DetClock forbids wall-clock reads and global (unseeded) math/rand state
// in the deterministic core: internal/sim, internal/eventq,
// internal/sched/..., internal/cost, internal/profile, internal/randdag,
// internal/mpi and internal/cluster.
// Those packages define the reproducible half of the system — the same
// graph, cost model and seed must yield byte-identical schedules and
// simulated timelines — so time and randomness may only enter through
// injected values: an explicit `*rand.Rand` built from a caller-supplied
// seed (randdag's Config.Seed), an injected mpi.Clock, or timestamps
// passed in by the measurement layer.
//
// time.Now and friends remain legal in internal/runtime (which measures
// real executions and injects the clock into mpi), in _test.go files,
// and everywhere outside the core. There is deliberately no suppression
// directive: a clock or global-RNG call in the core is a design error,
// not a style choice — inject the dependency instead.
var DetClock = &analysis.Analyzer{
	Name: "detclock",
	Doc:  "forbids wall-clock and global math/rand use in the deterministic core",
	Run:  runDetClock,
}

// detClockForbidden maps package path -> function names whose call sites
// leak nondeterminism. For math/rand the list is exactly the functions
// operating on the package-global generator; rand.New/NewSource with an
// explicit seed stay legal.
var detClockForbidden = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true,
		"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
		"NewTicker": true, "NewTimer": true,
	},
	"math/rand": {
		"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
		"Perm": true, "Shuffle": true, "Read": true,
	},
	"math/rand/v2": {
		"Int": true, "IntN": true, "Int32": true, "Int32N": true,
		"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
		"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
		"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
		"Perm": true, "Shuffle": true, "N": true,
	},
}

func runDetClock(pass *analysis.Pass) error {
	if !inScope(pass.Path, "internal/sim", "internal/eventq", "internal/sched", "internal/cost", "internal/profile", "internal/randdag", "internal/mpi", "internal/cluster", "cmd") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, name, ok := pass.PkgFunc(sel)
			if !ok || !detClockForbidden[pkg][name] {
				return true
			}
			if pass.IsTestFile(sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s in the deterministic core; inject a seeded *rand.Rand or an explicit timestamp instead", pathBase(pkg), name)
			return true
		})
	}
	return nil
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
