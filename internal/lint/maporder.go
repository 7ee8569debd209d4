package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// MapOrder flags `for range` over a map inside the scheduling core
// (internal/sched/..., internal/sim, internal/cost,
// internal/experiments). Go randomizes map iteration order, so any such
// loop whose effect depends on visit order makes schedules — and the
// results_*.txt they produce — differ from run to run over identical
// inputs, which is exactly the reproducibility the paper's Figs. 9-14
// rely on.
//
// A loop is accepted without a diagnostic when its body is provably
// order-insensitive:
//
//   - it only collects keys/values into a slice that is subsequently
//     sorted in the same function (the collect-then-sort idiom);
//   - it only performs commutative accumulation (+=, counters, bit-ops)
//     or writes into another map at distinct keys;
//   - it only runs min/max-style conditional updates.
//
// Anything else must either iterate sorted keys instead, or carry a
// `//lint:ordered` directive asserting that order cannot matter.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags order-dependent map iteration in the deterministic scheduling core",
	Run:  runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	if !inScope(pass.Path, "internal/sched", "internal/sim", "internal/eventq", "internal/cost", "internal/dpcache", "internal/experiments", "internal/cluster", "internal/specflag", "internal/graph", "cmd") {
		return nil
	}
	for _, f := range pass.Files {
		// Record every function body so each range statement can find
		// its enclosing function (needed to spot sort calls after the
		// loop).
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		enclosing := func(pos token.Pos) *ast.BlockStmt {
			var best *ast.BlockStmt
			for _, b := range bodies {
				if b.Pos() <= pos && pos < b.End() {
					if best == nil || b.Pos() > best.Pos() {
						best = b
					}
				}
			}
			return best
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.Suppressed("ordered", rs.Pos()) {
				return true
			}
			chk := &orderChecker{pass: pass, rng: rs, fn: enclosing(rs.Pos())}
			if chk.insensitiveBlock(rs.Body) {
				return true
			}
			pass.Reportf(rs.Pos(), "iteration over map %s is order-dependent in the deterministic core; iterate sorted keys, or mark //lint:ordered if order provably cannot matter", types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// orderChecker decides whether a map-range body is order-insensitive.
type orderChecker struct {
	pass *analysis.Pass
	rng  *ast.RangeStmt
	fn   *ast.BlockStmt // enclosing function body, nil at file scope
}

func (c *orderChecker) insensitiveBlock(b *ast.BlockStmt) bool {
	for _, st := range b.List {
		if !c.insensitiveStmt(st) {
			return false
		}
	}
	return true
}

func (c *orderChecker) insensitiveStmt(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		return c.insensitiveAssign(s)
	case *ast.IncDecStmt:
		return true // counters commute
	case *ast.DeclStmt, *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		// Skipping elements is order-free; breaking out (or goto-ing
		// away) at an arbitrary element is not.
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		// delete(m, k) removes at a key; any other call may observe order.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !c.insensitiveStmt(s.Init) {
			return false
		}
		// Min/max-style updates (`if v < best { best = v }`) commute even
		// though the branch assigns plainly: the assigned variable must
		// itself appear in the condition.
		if c.isExtremumUpdate(s) {
			return true
		}
		if !c.insensitiveBlock(s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return c.insensitiveBlock(e)
		case *ast.IfStmt:
			return c.insensitiveStmt(e)
		}
		return false
	case *ast.BlockStmt:
		return c.insensitiveBlock(s)
	case *ast.RangeStmt:
		return c.insensitiveBlock(s.Body)
	case *ast.ForStmt:
		return c.insensitiveBlock(s.Body)
	default:
		// return/break leak the arbitrary visit order; sends, gos,
		// defers and anything unrecognized are assumed order-sensitive.
		return false
	}
}

func (c *orderChecker) insensitiveAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true // commutative accumulation
	case token.ASSIGN, token.DEFINE:
	default:
		return false
	}
	if len(s.Lhs) != len(s.Rhs) && len(s.Rhs) != 1 {
		return false
	}
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if i < len(s.Rhs) {
			rhs = s.Rhs[i]
		} else {
			rhs = s.Rhs[0]
		}
		if !c.insensitiveWrite(lhs, rhs, s.Tok == token.DEFINE) {
			return false
		}
	}
	return true
}

func (c *orderChecker) insensitiveWrite(lhs, rhs ast.Expr, define bool) bool {
	// Writing another map at a (presumably distinct) key commutes.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := c.pass.Info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
		return false
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	if define {
		return true // fresh per-iteration local
	}
	// Idempotent constant writes (`found = true`) commute.
	switch r := rhs.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		if r.Name == "true" || r.Name == "false" || r.Name == "nil" {
			return true
		}
	}
	// x = append(x, ...) is fine when x is sorted later in the function.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
			if base, ok := call.Args[0].(*ast.Ident); ok && c.sameObject(base, id) {
				return c.sortedAfterLoop(id)
			}
		}
	}
	return false
}

// isExtremumUpdate recognizes `if <cond mentioning x> { x = ... }` with a
// single plain assignment (optionally several, all to condition vars).
func (c *orderChecker) isExtremumUpdate(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) == 0 {
		return false
	}
	condVars := map[types.Object]bool{}
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.Info.ObjectOf(id); obj != nil {
				condVars[obj] = true
			}
		}
		return true
	})
	for _, st := range s.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return false
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !condVars[c.pass.Info.ObjectOf(id)] {
				return false
			}
		}
	}
	return true
}

func (c *orderChecker) sameObject(a, b *ast.Ident) bool {
	oa, ob := c.pass.Info.ObjectOf(a), c.pass.Info.ObjectOf(b)
	return oa != nil && oa == ob
}

// sortFuncs are the sort entry points whose first argument names the
// slice being ordered.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Stable": true, "Sort": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfterLoop reports whether the enclosing function sorts the slice
// named by id at some point after the range statement.
func (c *orderChecker) sortedAfterLoop(id *ast.Ident) bool {
	if c.fn == nil {
		return false
	}
	obj := c.pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(c.fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < c.rng.End() || len(call.Args) == 0 {
			return true
		}
		pkg, name, ok := c.pass.PkgFunc(call.Fun)
		if !ok || !sortFuncs[pkg][name] {
			return true
		}
		arg := call.Args[0]
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		if aid, ok := arg.(*ast.Ident); ok && c.pass.Info.ObjectOf(aid) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
