package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// FloatCmp flags `==` and `!=` between floating-point expressions in the
// scheduler, cost, simulator and experiment packages. Latencies and costs
// there are sums and maxima of float64 stage times; two mathematically
// equal values routinely differ in the last ulp depending on accumulation
// order, so exact equality silently flips branches between runs and
// platforms. Compare with stats.ApproxEqual, or restructure around
// ordered comparisons (`<` / `>`), which are well-defined.
//
// Exact comparison is occasionally the right tool — IEEE-754 equality in
// a tie-break that must induce a strict weak order, or a NaN check.
// Mark such lines with `//lint:floatexact`.
var FloatCmp = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "flags exact floating-point equality on latency/cost values",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *analysis.Pass) error {
	if !inScope(pass.Path, "internal/sched", "internal/sim", "internal/eventq", "internal/cost", "internal/dpcache", "internal/experiments", "internal/cluster", "internal/specflag", "internal/graph", "cmd") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info.TypeOf(be.X)) && !isFloat(pass.Info.TypeOf(be.Y)) {
				return true
			}
			if pass.IsTestFile(be.Pos()) || pass.Suppressed("floatexact", be.Pos()) {
				return true
			}
			pass.Reportf(be.OpPos, "exact floating-point %s on latency/cost values; use stats.ApproxEqual or an ordered comparison, or mark //lint:floatexact", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
