package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// UnitFlow enforces the dimensional discipline of internal/units across
// the quantity-bearing packages. The defined types (Millis, Bytes, FLOPs,
// ...) make cross-kind addition a compile error, but three flows remain
// invisible to the type system, and this analyzer propagates unit kinds
// through assignments, arithmetic and call boundaries to catch them:
//
//  1. a raw numeric literal converting implicitly into a unit-typed
//     parameter, field, variable or operand — `chargeFor(3.5)` compiles
//     because untyped constants convert silently, but nothing says
//     whether 3.5 was meant as milliseconds or seconds; write
//     units.Millis(3.5) at the source instead (the zero literal is
//     exempt: zero is zero in every unit);
//  2. a value laundered through float64(x) and then added to, compared
//     with, or re-labeled as a different unit kind —
//     units.Seconds(float64(ms)) re-tags milliseconds as seconds
//     without the 1e3; convert with the named methods (Seconds.Millis,
//     Millis.Seconds) instead;
//  3. multiplication or division of two unit-typed operands — no entry
//     of the units table defines Millis×Millis or Millis/Millis; a
//     dimensionless factor wants Scale or Div, a dimensionless quotient
//     wants Ratio, and the legal cross-unit quotients exist only as
//     FLOPs.Over and Bytes.Over.
//
// An intentionally unitless flow (e.g. feeding a duration into a generic
// numeric sink) can be marked line by line with `//lint:unitless`.
var UnitFlow = &analysis.Analyzer{
	Name: "unitflow",
	Doc:  "propagates unit kinds through the cost model and flags dimensionally unsound flows",
	Run:  runUnitFlow,
}

// unitflowScope lists the quantity-bearing layers: everywhere a
// units.Millis/Bytes/FLOPs value is produced or consumed.
var unitflowScope = []string{
	"internal/gpu", "internal/cost", "internal/costcache", "internal/profile",
	"internal/model", "internal/sched", "internal/sim", "internal/pipeline",
	"internal/trace", "internal/memory", "internal/runtime",
	"internal/experiments", "internal/cluster",
	"internal/specflag", "cmd",
}

const unitsPkgPath = ModulePath + "/internal/units"

// unitKind returns the unit type's name ("Millis", "Bytes", ...) when t
// is (or aliases) one of the defined quantity types of internal/units.
func unitKind(t types.Type) (string, bool) {
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != unitsPkgPath {
		return "", false
	}
	b, ok := n.Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Float64 {
		return "", false
	}
	return obj.Name(), true
}

func runUnitFlow(pass *analysis.Pass) error {
	if !inScope(pass.Path, unitflowScope...) {
		return nil
	}
	for _, f := range pass.Files {
		uf := &unitFlow{pass: pass}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					uf.taintFunc(n.Body)
				}
			case *ast.CallExpr:
				uf.checkCall(n)
			case *ast.CompositeLit:
				uf.checkComposite(n)
			case *ast.AssignStmt:
				uf.checkAssign(n)
			case *ast.ValueSpec:
				uf.checkValueSpec(n)
			case *ast.ReturnStmt:
				uf.checkReturn(n)
			case *ast.BinaryExpr:
				uf.checkBinary(n)
			}
			return true
		})
	}
	return nil
}

type unitFlow struct {
	pass *analysis.Pass
	// taint maps local variables holding float64(x)-laundered unit
	// values to the unit kind they came from.
	taint map[*types.Var]string
}

func (uf *unitFlow) report(pos token.Pos, format string, args ...any) {
	if uf.pass.IsTestFile(pos) || uf.pass.Suppressed("unitless", pos) {
		return
	}
	uf.pass.Reportf(pos, format, args...)
}

// rawLiteral unwraps parens and sign and reports whether e is a bare
// numeric literal, along with whether it is exactly zero (zero carries no
// unit ambiguity and stays legal everywhere).
func rawLiteral(e ast.Expr) (lit *ast.BasicLit, zero, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return nil, false, false
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind != token.INT && x.Kind != token.FLOAT {
				return nil, false, false
			}
			z := true
			for _, c := range x.Value {
				if c >= '1' && c <= '9' {
					z = false
					break
				}
			}
			return x, z, true
		default:
			return nil, false, false
		}
	}
}

// isConst reports whether e is a constant expression. An untyped
// constant in unit arithmetic (`2 * t`) adopts the unit's type but is a
// dimensionless scale factor, which is legal in multiplication and
// division — only two runtime unit values multiplied together invent an
// undefined dimension.
func (uf *unitFlow) isConst(e ast.Expr) bool {
	tv, ok := uf.pass.Info.Types[e]
	return ok && tv.Value != nil
}

// isConversion reports whether call is a type conversion (as opposed to a
// function or method call).
func (uf *unitFlow) isConversion(call *ast.CallExpr) bool {
	if tv, ok := uf.pass.Info.Types[call.Fun]; ok {
		return tv.IsType()
	}
	return false
}

// checkCall flags raw numeric literals passed where a parameter is
// unit-typed (rule 1 at call boundaries). Explicit unit conversions
// (units.Millis(5)) are the sanctioned way to introduce a literal and
// are skipped.
func (uf *unitFlow) checkCall(call *ast.CallExpr) {
	if uf.isConversion(call) {
		return
	}
	sig, ok := uf.pass.Info.TypeOf(call.Fun).(*types.Signature)
	if ok {
		uf.checkArgs(call, sig)
	}
}

func (uf *unitFlow) checkArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis == token.NoPos {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		kind, ok := unitKind(pt)
		if !ok {
			continue
		}
		if _, zero, isLit := rawLiteral(arg); isLit && !zero {
			uf.report(arg.Pos(), "raw numeric literal for %s parameter; write units.%s(...) at the source of the value", kind, kind)
		}
	}
}

// checkComposite flags raw literals initializing unit-typed struct fields
// or element types (rule 1 at composite literals).
func (uf *unitFlow) checkComposite(cl *ast.CompositeLit) {
	tv, ok := uf.pass.Info.Types[cl]
	if !ok {
		return
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Struct:
		uf.checkStructLit(cl, t)
	case *types.Slice:
		uf.checkElemLits(cl, t.Elem())
	case *types.Array:
		uf.checkElemLits(cl, t.Elem())
	case *types.Map:
		uf.checkElemLits(cl, t.Elem())
	}
}

func (uf *unitFlow) checkStructLit(cl *ast.CompositeLit, st *types.Struct) {
	for i, el := range cl.Elts {
		var ft types.Type
		var val ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == id.Name {
					ft = st.Field(j).Type()
					break
				}
			}
			val = kv.Value
		} else if i < st.NumFields() {
			ft = st.Field(i).Type()
			val = el
		}
		if ft == nil {
			continue
		}
		if kind, ok := unitKind(ft); ok {
			if _, zero, isLit := rawLiteral(val); isLit && !zero {
				uf.report(val.Pos(), "raw numeric literal for %s field; write units.%s(...)", kind, kind)
			}
		}
	}
}

func (uf *unitFlow) checkElemLits(cl *ast.CompositeLit, elem types.Type) {
	kind, ok := unitKind(elem)
	if !ok {
		return
	}
	for _, el := range cl.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if _, zero, isLit := rawLiteral(val); isLit && !zero {
			uf.report(val.Pos(), "raw numeric literal for %s element; write units.%s(...)", kind, kind)
		}
	}
}

// checkAssign flags raw literals assigned to unit-typed variables or
// fields (rule 1 at assignments). `x := 5` never infers a unit type, so
// only `=` assignments to existing unit-typed destinations can smuggle a
// literal in.
func (uf *unitFlow) checkAssign(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		kind, ok := unitKind(uf.pass.Info.TypeOf(lhs))
		if !ok {
			continue
		}
		if _, zero, isLit := rawLiteral(as.Rhs[i]); isLit && !zero {
			uf.report(as.Rhs[i].Pos(), "raw numeric literal assigned to %s; write units.%s(...)", kind, kind)
		}
	}
}

// checkValueSpec flags `var x units.Millis = 5` (rule 1 at declarations).
func (uf *unitFlow) checkValueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	kind, ok := unitKind(uf.pass.Info.TypeOf(vs.Type))
	if !ok {
		return
	}
	for _, v := range vs.Values {
		if _, zero, isLit := rawLiteral(v); isLit && !zero {
			uf.report(v.Pos(), "raw numeric literal declared as %s; write units.%s(...)", kind, kind)
		}
	}
}

// checkReturn flags raw literals returned where the result is unit-typed
// (rule 1 at returns). The enclosing signature is recovered from the
// innermost surrounding function, which the inspection order guarantees
// was visited; to keep the pass single-scan this resolves the expected
// type from the literal's own converted type instead.
func (uf *unitFlow) checkReturn(rs *ast.ReturnStmt) {
	for _, r := range rs.Results {
		tv, ok := uf.pass.Info.Types[r]
		if !ok {
			continue
		}
		kind, ok := unitKind(tv.Type)
		if !ok {
			continue
		}
		if _, zero, isLit := rawLiteral(r); isLit && !zero {
			uf.report(r.Pos(), "raw numeric literal returned as %s; write units.%s(...)", kind, kind)
		}
	}
}

// checkBinary applies rules 1 and 3 to arithmetic:
//
//   - a non-zero raw literal added to or compared with a unit-typed
//     operand is an implicit unit ascription (rule 1) — the epsilon in
//     `lat < best-1e-12` must say which unit it is in;
//   - `*` between two unit-typed operands and `/` between unit-typed
//     operands have no entry in the units table (rule 3).
func (uf *unitFlow) checkBinary(be *ast.BinaryExpr) {
	xKind, xUnit := unitKind(uf.pass.Info.TypeOf(be.X))
	yKind, yUnit := unitKind(uf.pass.Info.TypeOf(be.Y))
	if !xUnit && !yUnit {
		uf.checkTaintedBinary(be)
		return
	}
	switch be.Op {
	case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		// Same-kind arithmetic is the legal core; the compiler already
		// rejects mixed kinds. What it cannot see is a raw literal
		// silently adopting the unit.
		for _, operand := range []ast.Expr{be.X, be.Y} {
			if _, zero, isLit := rawLiteral(operand); isLit && !zero {
				kind := xKind
				if kind == "" {
					kind = yKind
				}
				uf.report(operand.Pos(), "raw numeric literal in %s arithmetic; write units.%s(...) so the unit of the constant is explicit", kind, kind)
			}
		}
	case token.MUL:
		if xUnit && yUnit && !uf.isConst(be.X) && !uf.isConst(be.Y) {
			uf.report(be.OpPos, "%s × %s has no defined unit; scale by a dimensionless float64 (Scale) instead", xKind, yKind)
		}
	case token.QUO:
		if xUnit && yUnit && !uf.isConst(be.X) && !uf.isConst(be.Y) {
			uf.report(be.OpPos, "%s / %s is not a %s; use Ratio for a dimensionless quotient or Over for the defined cross-unit divisions", xKind, yKind, xKind)
		}
	}
}

// taintFunc runs the rule-2 dataflow over one function body: float64(x)
// of a unit value taints the result with x's kind; taint propagates
// through := / = to locals and through +/- arithmetic; adding, comparing
// or re-labeling values of different kinds is reported.
func (uf *unitFlow) taintFunc(body *ast.BlockStmt) {
	uf.taint = make(map[*types.Var]string)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := uf.pass.Info.ObjectOf(id).(*types.Var)
				if !ok {
					continue
				}
				if kind, ok := uf.exprTaint(n.Rhs[i]); ok {
					uf.taint[v] = kind
				} else {
					delete(uf.taint, v)
				}
			}
		case *ast.BinaryExpr:
			uf.checkTaintedBinary(n)
		case *ast.CallExpr:
			uf.checkRelabel(n)
		}
		return true
	})
	uf.taint = nil
}

// exprTaint computes the unit kind carried by a plain-float64 expression:
// float64(x) of a unit value, a tainted local, or +/- arithmetic over a
// tainted operand. Multiplication and division intentionally clear the
// taint — dividing or scaling changes the dimension, which is exactly
// the legal way to leave the unit system.
func (uf *unitFlow) exprTaint(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return uf.exprTaint(x.X)
	case *ast.Ident:
		if v, ok := uf.pass.Info.ObjectOf(x).(*types.Var); ok {
			if kind, ok := uf.taint[v]; ok {
				return kind, true
			}
		}
	case *ast.CallExpr:
		if uf.isConversion(x) && len(x.Args) == 1 {
			to := uf.pass.Info.TypeOf(x.Fun)
			if b, ok := to.Underlying().(*types.Basic); ok && b.Kind() == types.Float64 {
				if _, isUnit := unitKind(to); !isUnit {
					if kind, ok := unitKind(uf.pass.Info.TypeOf(x.Args[0])); ok {
						return kind, true
					}
					return uf.exprTaint(x.Args[0])
				}
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB {
			if kind, ok := uf.exprTaint(x.X); ok {
				return kind, true
			}
			return uf.exprTaint(x.Y)
		}
	}
	return "", false
}

// checkTaintedBinary reports +, - and comparisons between float64 values
// laundered from different unit kinds (rule 2): the compiler sees two
// float64s, the dataflow still knows one is milliseconds and the other
// bytes.
func (uf *unitFlow) checkTaintedBinary(be *ast.BinaryExpr) {
	if uf.taint == nil {
		return
	}
	switch be.Op {
	case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	xKind, xok := uf.exprTaint(be.X)
	yKind, yok := uf.exprTaint(be.Y)
	if xok && yok && xKind != yKind {
		uf.report(be.OpPos, "mixing float64-laundered %s with %s; convert with the named unit methods before comparing or adding", xKind, yKind)
	}
}

// checkRelabel reports unit-kind conversions applied to float64 values
// laundered from a different kind (rule 2): units.Seconds(float64(ms))
// re-tags milliseconds as seconds without the 1e3.
func (uf *unitFlow) checkRelabel(call *ast.CallExpr) {
	if uf.taint == nil || !uf.isConversion(call) || len(call.Args) != 1 {
		return
	}
	toKind, ok := unitKind(uf.pass.Info.TypeOf(call.Fun))
	if !ok {
		return
	}
	fromKind, ok := uf.exprTaint(call.Args[0])
	if ok && fromKind != toKind {
		uf.report(call.Pos(), "re-labeling a float64-laundered %s as %s; use the named conversion methods of internal/units", fromKind, toKind)
	}
}
