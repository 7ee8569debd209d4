package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// SeedFlow extends the detclock idea from clocks to randomness: every
// RNG in the module must flow from an explicit seed through the
// splitmix64 seed mixer of internal/stats (MixSeed). Module-wide, in
// non-test files, it reports:
//
//  1. calls to the package-global math/rand and math/rand/v2 generators
//     (rand.Intn, rand.Float64, ...) — the global state is shared,
//     unseeded by default, and order-dependent under concurrency;
//  2. seed values laundered through raw integer arithmetic at an RNG
//     source constructor — rand.NewSource(seed+int64(i)) and friends —
//     because adjacent LCG seeds produce correlated streams; derive
//     child seeds with stats.MixSeed instead;
//  3. the splitmix64 magic constants (0x9e3779b97f4a7c15,
//     0xbf58476d1ce4e5b9, 0x94d049bb133111eb) outside internal/stats:
//     hand-rolled seed mixing belongs in the one audited helper.
//
// A legitimate non-seed use of the constants (e.g. the IOS DP's stage-set
// hash, which needs a mixer but never feeds an RNG) is suppressed line by
// line with `//lint:seedflow`.
var SeedFlow = &analysis.Analyzer{
	Name: "seedflow",
	Doc:  "requires RNG seeds to flow through the stats seed-stream helpers",
	Run:  runSeedFlow,
}

// seedSourceCtors maps RNG source constructors (package path -> function
// name) whose seed arguments rule 2 inspects.
var seedSourceCtors = map[string]map[string]bool{
	"math/rand":    {"NewSource": true},
	"math/rand/v2": {"NewPCG": true, "NewChaCha8": true},
}

// splitmixConstants are the three 64-bit splitmix64 mixing constants, as
// parsed integer values so every literal spelling matches.
var splitmixConstants = map[uint64]bool{
	0x9e3779b97f4a7c15: true,
	0xbf58476d1ce4e5b9: true,
	0x94d049bb133111eb: true,
}

// statsPkgPath is the sanctioned home of seed mixing.
const statsPkgPath = "internal/stats"

func runSeedFlow(pass *analysis.Pass) error {
	if !inModule(pass.Path) {
		return nil
	}
	// The lint tooling itself declares the constant table it matches.
	if inScope(pass.Path, "internal/lint") {
		return nil
	}
	inStats := inScope(pass.Path, statsPkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkg, name, ok := pass.PkgFunc(n.Fun)
				if !ok || pass.IsTestFile(n.Pos()) {
					return true
				}
				if strings.HasPrefix(pkg, "math/rand") && detClockForbidden[pkg][name] {
					if !pass.Suppressed("seedflow", n.Pos()) {
						pass.Reportf(n.Pos(), "global rand.%s: all randomness must flow from an explicit seed; build a rand.New(rand.NewSource(seed)) from a stats.MixSeed-derived seed", name)
					}
					return true
				}
				if !inStats && seedSourceCtors[pkg][name] {
					for _, arg := range n.Args {
						if launderedSeed(pass, arg) && !pass.Suppressed("seedflow", arg.Pos()) {
							pass.Reportf(arg.Pos(), "seed derived by raw integer arithmetic at %s.%s: adjacent seeds correlate; derive child seeds with stats.MixSeed", pathBase(pkg), name)
						}
					}
				}
			case *ast.BasicLit:
				if inStats || n.Kind != token.INT || pass.IsTestFile(n.Pos()) {
					return true
				}
				v, err := strconv.ParseUint(n.Value, 0, 64)
				if err == nil && splitmixConstants[v] && !pass.Suppressed("seedflow", n.Pos()) {
					pass.Reportf(n.Pos(), "splitmix64 constant outside internal/stats: use stats.MixSeed instead of hand-rolled seed mixing")
				}
			}
			return true
		})
	}
	return nil
}

// launderedSeed reports whether a seed expression contains raw integer
// arithmetic (any binary operator), the laundering rule 2 forbids. Type
// conversions are transparent (int64(i)+seed still launders); a helper
// call (stats.MixSeed, a named derivation) is opaque and stays legal.
func launderedSeed(pass *analysis.Pass, arg ast.Expr) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			found = true
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversions are transparent
			}
			return false
		}
		return !found
	})
	return found
}
