package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/shus-lab/hios/internal/lint/analysis"
)

// LockSafe enforces the lock discipline of the mutex-bearing packages
// (internal/costcache, internal/dpcache, internal/memo,
// internal/profile, internal/parallel, internal/runtime,
// internal/cluster): critical
// sections stay short, allocation-free and balanced. Concretely it flags
//
//   - allocation under a held sync.Mutex/RWMutex — make, new, slice and
//     map literals, address-taken composites. Building the value before
//     locking keeps the critical section to the insert. Plain append is
//     deliberately accepted: appending a prepared element to a guarded
//     slice is the sanctioned publish idiom (runtime's span log).
//   - fmt/log/os/io/bufio calls under a held lock — formatting and IO
//     stall every other goroutine on the lock.
//   - cost-model computation (calls into internal/cost or internal/gpu)
//     under a held lock. The memoization contract is compute outside,
//     insert under the write lock with a re-check; holding the lock
//     through the computation serializes exactly the work the caches
//     exist to parallelize.
//   - copying a lock: a value (non-pointer) receiver or parameter whose
//     struct type transitively contains a mutex.
//   - returning with a lock held: a return statement inside a critical
//     section that has no deferred unlock and whose unlock comes later
//     (or never) leaks the lock on that path.
//   - double-checked insert without a re-check: a map read under RLock
//     followed by a store under Lock with no second read between the
//     Lock and the store loses the racer's insert silently; both the
//     else-branch re-check and the defer-unlock early-return re-check
//     (memo.Map.Put) are accepted.
//
// The analysis is per-function and positional: a critical section is the
// source span from a Lock/RLock call to its matching unlock (function end
// when the unlock is deferred). Function literals are analyzed as their
// own functions; their bodies do not count against an enclosing section,
// and locks they take are tracked separately. A deliberate exception can
// be suppressed with `//lint:locksafe`.
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "flags allocation, IO, cost-model computation and unlock-balance bugs inside mutex critical sections",
	Run:  runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	if !inScope(pass.Path, "internal/costcache", "internal/dpcache", "internal/memo", "internal/profile", "internal/parallel", "internal/runtime", "internal/cluster") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkLockCopy(pass, n)
				if n.Body != nil {
					checkLockRegions(pass, n.Body)
				}
			case *ast.FuncLit:
				checkLockRegions(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkLockCopy flags value receivers and parameters whose struct type
// transitively contains a sync mutex: calling the function copies the
// lock, and the copy guards nothing.
func checkLockCopy(pass *analysis.Pass, fd *ast.FuncDecl) {
	check := func(field *ast.Field, what string) {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if !containsLock(t, map[types.Type]bool{}) {
			return
		}
		pos := field.Type.Pos()
		if pass.IsTestFile(pos) || pass.Suppressed("locksafe", pos) {
			return
		}
		pass.Reportf(pos, "%s of %s passes a mutex-containing struct by value, copying the lock; use a pointer", what, fd.Name.Name)
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			check(field, "receiver")
		}
	}
	for _, field := range fd.Type.Params.List {
		check(field, "parameter")
	}
}

// containsLock reports whether t transitively contains sync.Mutex or
// sync.RWMutex by value.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isSyncLock(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

func isSyncLock(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// lockEvent is one mutex call in a function body, in source order.
type lockEvent struct {
	pos      token.Pos
	name     string // rendered lock expression, e.g. "c.mu"
	method   string // Lock, RLock, Unlock, RUnlock
	deferred bool
}

// section is one critical section: from the acquiring call to its
// matching unlock, or to the body end when the unlock is deferred or
// missing.
type section struct {
	name       string
	write      bool // Lock rather than RLock
	start, end token.Pos
	deferred   bool // released by a deferred unlock
}

// checkLockRegions runs the critical-section rules over one function
// body, treating nested function literals as opaque.
func checkLockRegions(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []lockEvent
	deferCalls := map[*ast.CallExpr]bool{}
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Parents are visited before children, so the call is
			// marked before its own CallExpr visit below.
			deferCalls[n.Call] = true
			if name, method, ok := mutexCall(pass, n.Call); ok && (method == "Unlock" || method == "RUnlock") {
				events = append(events, lockEvent{pos: n.Pos(), name: name, method: method, deferred: true})
			}
		case *ast.CallExpr:
			if deferCalls[n] {
				return
			}
			if name, method, ok := mutexCall(pass, n); ok {
				events = append(events, lockEvent{pos: n.Pos(), name: name, method: method})
			}
		}
	})
	if len(events) == 0 {
		return
	}

	// Assemble sections positionally: an acquire opens, the next
	// matching release closes. This linearizes branches, which
	// over-extends a section whose unlock sits inside an early-return
	// branch — conservative in the right direction for the
	// return-with-lock-held rule and the supported idioms.
	var sections []section
	open := map[string]int{} // lock name -> index into sections
	for _, ev := range events {
		switch ev.method {
		case "Lock", "RLock":
			if _, ok := open[ev.name]; ok {
				continue // recursive lock: the race detector's department
			}
			open[ev.name] = len(sections)
			sections = append(sections, section{
				name:  ev.name,
				write: ev.method == "Lock",
				start: ev.pos,
				end:   body.End(),
			})
		case "Unlock", "RUnlock":
			i, ok := open[ev.name]
			if !ok {
				continue
			}
			if ev.deferred {
				sections[i].deferred = true
				continue // section runs to the body end
			}
			sections[i].end = ev.pos
			delete(open, ev.name)
		}
	}

	for _, s := range sections {
		checkSectionBody(pass, body, s)
	}
	checkDoubleCheckedInsert(pass, body, sections)
}

// checkSectionBody flags allocation, IO, cost-model computation and
// lock-leaking returns inside one critical section.
func checkSectionBody(pass *analysis.Pass, body *ast.BlockStmt, s section) {
	report := func(pos token.Pos, format string, args ...any) {
		if pass.IsTestFile(pos) || pass.Suppressed("locksafe", pos) {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	inSection := func(pos token.Pos) bool { return pos > s.start && pos < s.end }
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !inSection(n.Pos()) {
				return
			}
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
				if pass.Info.ObjectOf(id) == types.Universe.Lookup(id.Name) {
					report(n.Pos(), "%s under held lock %s; build the value before locking", id.Name, s.name)
				}
				return
			}
			switch pkg := calleePkg(pass, n); pkg {
			case "fmt", "log", "os", "io", "bufio":
				report(n.Pos(), "%s call under held lock %s; format or do IO outside the critical section", pkg, s.name)
			case ModulePath + "/internal/cost", ModulePath + "/internal/gpu":
				report(n.Pos(), "cost-model computation under held lock %s; compute outside and insert under the lock with a re-check", s.name)
			}
		case *ast.CompositeLit:
			if !inSection(n.Pos()) {
				return
			}
			t := pass.Info.TypeOf(n)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n.Pos(), "%s literal allocates under held lock %s; build it before locking", kindWord(t), s.name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && inSection(n.Pos()) {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal allocates under held lock %s; build it before locking", s.name)
				}
			}
		case *ast.ReturnStmt:
			if inSection(n.Pos()) && !s.deferred {
				report(n.Pos(), "return with lock %s held and no deferred unlock; this path leaks the lock", s.name)
			}
		}
	})
}

func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// checkDoubleCheckedInsert flags the broken half of the double-checked
// insert idiom: a map consulted under RLock and then stored to under a
// write lock without re-reading it first.
func checkDoubleCheckedInsert(pass *analysis.Pass, body *ast.BlockStmt, sections []section) {
	// Maps read under any read section of this function.
	readUnderRLock := map[string]bool{}
	for _, s := range sections {
		if s.write {
			continue
		}
		inspectShallow(body, func(n ast.Node) {
			ix, ok := n.(*ast.IndexExpr)
			if !ok || ix.Pos() <= s.start || ix.Pos() >= s.end {
				return
			}
			if _, isMap := mapIndex(pass, ix); isMap {
				readUnderRLock[types.ExprString(ix.X)] = true
			}
		})
	}
	if len(readUnderRLock) == 0 {
		return
	}
	for _, s := range sections {
		if !s.write {
			continue
		}
		// Positions of reads and stores of each interesting map inside
		// this write section.
		reads := map[string][]token.Pos{}
		var stores []*ast.IndexExpr
		storeTargets := map[*ast.IndexExpr]bool{}
		inspectShallow(body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Pos() <= s.start || as.Pos() >= s.end {
				return
			}
			for _, lhs := range as.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if name, isMap := mapIndex(pass, ix); isMap && readUnderRLock[name] {
						stores = append(stores, ix)
						storeTargets[ix] = true
					}
				}
			}
		})
		if len(stores) == 0 {
			continue
		}
		inspectShallow(body, func(n ast.Node) {
			ix, ok := n.(*ast.IndexExpr)
			if !ok || storeTargets[ix] || ix.Pos() <= s.start || ix.Pos() >= s.end {
				return
			}
			if name, isMap := mapIndex(pass, ix); isMap && readUnderRLock[name] {
				reads[name] = append(reads[name], ix.Pos())
			}
		})
		for _, ix := range stores {
			name, _ := mapIndex(pass, ix)
			rechecked := false
			for _, p := range reads[name] {
				if p < ix.Pos() {
					rechecked = true
					break
				}
			}
			if rechecked || pass.IsTestFile(ix.Pos()) || pass.Suppressed("locksafe", ix.Pos()) {
				continue
			}
			pass.Reportf(ix.Pos(), "store to %s under write lock %s without re-checking after the RLock read; a racer's insert is silently overwritten", name, s.name)
		}
	}
}

// mapIndex returns the rendered map expression when ix indexes a map.
func mapIndex(pass *analysis.Pass, ix *ast.IndexExpr) (string, bool) {
	t := pass.Info.TypeOf(ix.X)
	if t == nil {
		return "", false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return "", false
	}
	return types.ExprString(ix.X), true
}

// mutexCall classifies call as a Lock/RLock/Unlock/RUnlock on a sync
// mutex, returning the rendered lock expression.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (name, method string, ok bool) {
	sel, ok2 := call.Fun.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	m := sel.Sel.Name
	if m != "Lock" && m != "RLock" && m != "Unlock" && m != "RUnlock" {
		return "", "", false
	}
	t := pass.Info.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if !isSyncLock(t) {
		return "", "", false
	}
	return types.ExprString(sel.X), m, true
}

// calleePkg returns the import path of the package defining the called
// function or method ("" when unresolvable or a builtin).
func calleePkg(pass *analysis.Pass, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.Info.ObjectOf(fun.Sel)
	case *ast.Ident:
		obj = pass.Info.ObjectOf(fun)
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// inspectShallow walks the body but does not descend into nested function
// literals: their statements execute under their own lock discipline.
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
