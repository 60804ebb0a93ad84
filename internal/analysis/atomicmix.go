package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// AtomicmixAnalyzer enforces the torn-read-free snapshot contract of the
// collection tier's counters: a variable or struct field that any code
// in the module accesses through the sync/atomic free functions must be
// accessed atomically on *every* path. The classic violation is the
// snapshot/Counters-style method that reads the fields plainly while the
// hot path Add-s them atomically — a data race the race detector only
// catches when a test happens to interleave, but this check catches
// structurally. The typed wrappers (atomic.Uint64 and friends) make the
// mix inexpressible, which is why the remediation points at them.
//
// Approximation rules (DESIGN.md §5):
//
//   - A plain access under a held mutex is recognised clean via the
//     defuse layer's textual mutex discipline (Lock/RLock increments,
//     non-deferred Unlock/RUnlock decrements): a locked snapshot is a
//     deliberate hybrid the check accepts even though it cannot prove
//     the writers hold the same lock — the race detector and lockheld
//     own that half.
//   - Field identity is positional (defining file:line:col of the field
//     object), so accesses seen through the importer's declaration-only
//     shadow of another unit still unify with the defining unit's.
//   - Taking the field's address outside a sync/atomic argument counts
//     as a plain access: an escaped pointer is how mixed access hides.
//   - Test files are exempt on both sides: a test hammering a counter
//     atomically neither arms the check nor gets flagged.
var AtomicmixAnalyzer = &Analyzer{
	Name:      "atomicmix",
	Doc:       "a field accessed through sync/atomic anywhere must be accessed atomically (or under a mutex) on every path",
	RunModule: runAtomicmix,
}

// atomicSite is one sync/atomic access of a tracked object.
type atomicSite struct {
	key string
	pos token.Position
	op  string // the sync/atomic function name
}

func runAtomicmix(mp *ModulePass) {
	mod := mp.Mod
	// Phase 1: collect every object accessed through a sync/atomic free
	// function, keyed by defining position (stable across importer
	// shadows because every unit shares one FileSet over the same files).
	first := map[string]atomicSite{}
	mp.Graph.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test {
			return
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, obj := atomicCallTarget(n.Pass, call)
			if obj == nil {
				return true
			}
			key := atomicObjKey(mod, obj)
			site := atomicSite{key: key, pos: mod.Fset.Position(call.Pos()), op: op}
			if prev, ok := first[key]; !ok || posBefore(site.pos, prev.pos) {
				first[key] = site
			}
			return true
		})
	})
	if len(first) == 0 {
		return
	}
	// Phase 2: find plain accesses of the same objects.
	mp.Graph.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test {
			return
		}
		atomicmixBody(mp, n, first)
	})
}

// posBefore orders token positions by (file, offset) for deterministic
// "first atomic site" attribution.
func posBefore(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// atomicObjKey is the cross-shadow identity of a variable or field: its
// defining position plus name.
func atomicObjKey(mod *Module, obj types.Object) string {
	return mod.Fset.Position(obj.Pos()).String() + "#" + obj.Name()
}

// atomicCallTarget matches a sync/atomic free-function call taking &x as
// its first argument and returns the function name and x's root variable
// or field object.
func atomicCallTarget(p *Pass, call *ast.CallExpr) (string, types.Object) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || len(call.Args) == 0 {
		return "", nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", nil // typed-wrapper methods make the mix inexpressible
	}
	ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return "", nil
	}
	obj := fieldOrVarObject(p, ue.X)
	if obj == nil {
		return "", nil
	}
	return fn.Name(), obj
}

// fieldOrVarObject resolves an addressable expression to the variable or
// struct-field object it names: s.n to the field n, plain n to the var.
func fieldOrVarObject(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := p.ObjectOf(e).(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := p.ObjectOf(e.Sel).(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		return fieldOrVarObject(p, e.X)
	}
	return nil
}

// atomicmixBody scans one function body for plain accesses of tracked
// objects and reports each that is not under a held mutex.
func atomicmixBody(mp *ModulePass, n *Node, first map[string]atomicSite) {
	pass, mod, body := n.Pass, mp.Mod, n.Decl.Body

	// Exclusion ranges: the argument extents of sync/atomic calls (the
	// atomic accesses themselves).
	var atomicRanges [][2]token.Pos
	ast.Inspect(body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if fn := pass.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				atomicRanges = append(atomicRanges, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
	inAtomic := func(pos token.Pos) bool {
		for _, r := range atomicRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	// Textual mutex discipline, shared with the defuse layer: a Lock
	// before the access with no intervening non-deferred Unlock.
	type lockEvent struct {
		pos   token.Pos
		delta int
	}
	var locks []lockEvent
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.DeferStmt); ok {
			// A deferred Unlock runs at exit; it never re-exposes the
			// statements between Lock and return.
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, name, ok := syncMethod(pass, call, "sync.Mutex", "sync.RWMutex"); ok {
			switch name {
			case "Lock", "RLock":
				locks = append(locks, lockEvent{call.Pos(), +1})
			case "Unlock", "RUnlock":
				locks = append(locks, lockEvent{call.Pos(), -1})
			}
		}
		return true
	})
	underMutex := func(pos token.Pos) bool {
		held := 0
		for _, ev := range locks {
			if ev.pos < pos {
				held += ev.delta
			}
		}
		return held > 0
	}

	// Write targets: idents that are assignment or inc/dec targets.
	writes := map[*ast.Ident]bool{}
	markTarget := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			writes[e] = true
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		case *ast.IndexExpr:
			markWrapped(writes, e.X)
		case *ast.StarExpr:
			markWrapped(writes, e.X)
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				markTarget(lhs)
			}
		case *ast.IncDecStmt:
			markTarget(nd.X)
		}
		return true
	})

	report := func(id *ast.Ident, obj types.Object) {
		site, tracked := first[atomicObjKey(mod, obj)]
		if !tracked || inAtomic(id.Pos()) || underMutex(id.Pos()) {
			return
		}
		verb := "read"
		if writes[id] {
			verb = "written"
		}
		p := site.pos
		p.Filename = filepath.Base(p.Filename)
		mp.Reportf(id.Pos(), nil,
			"mixed atomic/plain access: %s is accessed via atomic.%s (%s) but %s plainly here — a torn snapshot under load; use the sync/atomic typed wrappers or guard every access with one mutex (DESIGN.md §5)",
			obj.Name(), site.op, p, verb)
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		if pass.Info.Defs[id] != nil {
			return true // a definition is not an access
		}
		if v, isVar := pass.Info.Uses[id].(*types.Var); isVar {
			report(id, v)
		}
		return true
	})
}

// markWrapped records the base identifier of a wrapped write target
// (v[i] = x, *p = x) as written.
func markWrapped(writes map[*ast.Ident]bool, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		writes[e] = true
	case *ast.SelectorExpr:
		writes[e.Sel] = true
	case *ast.IndexExpr:
		markWrapped(writes, e.X)
	case *ast.StarExpr:
		markWrapped(writes, e.X)
	}
}
