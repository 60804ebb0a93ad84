package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MemboundAnalyzer is the generator's allocation check: functions
// reachable from the generator root (allocScope) allocate nothing per
// iteration. Inside any lexical loop it flags an allocating composite
// literal, a cap-unguarded append, a bare make, fmt.Sprint*, a
// string/byte conversion and a closure. The slab grammar (a reset to
// zero length, x = x[:0], or a cap-guarded regrow, if cap(x) < n { x =
// make(...) }), make with capacity and an in-place filter alias
// (out := v[:k]) are reuse disciplines (DESIGN.md §5). The study's
// residency — memory sized by the subscriber population, never by the
// log — is a measured contract, not a rule: TestStreamingResidency
// bounds the live heap's change per streamed record (DESIGN.md §8).
var MemboundAnalyzer = &Analyzer{
	Name:      "membound",
	Doc:       "bounded memory: no per-record allocation on generator paths",
	RunModule: runMembound,
}

// allocScope is the rule's surface, the generator hot path: the
// non-test functions reachable from the roots' non-test functions, minus
// the exempt packages. Exempt are build-once setup (population, app
// catalog, cell plan, device db), the RNG and stats kernels whose buffers
// are their own contract, the shard runtime, and the study side and the
// codecs, whose residency TestStreamingResidency measures.
var allocScope = struct{ roots, exempt []string }{
	roots: []string{"internal/gen/sim"},
	exempt: []string{
		"internal/gen/population", "internal/gen/apps", "internal/randx", "internal/stats",
		"internal/mnet/cells", "internal/mnet/devicedb", "internal/shard", "internal/core",
		"internal/stream", "internal/study/...", "internal/mnet/proxylog", "internal/mnet/mme",
		"internal/mnet/udr",
	},
}

func runMembound(mp *ModulePass) {
	g := mp.Graph
	alloc := g.ReachableFromPkgs(allocScope.roots)
	seen := map[token.Pos]bool{}
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !alloc.Contains(n) || matchRel(n.Rel, allocScope.exempt) {
			return
		}
		allocFunc(mp, n, pathSteps(mp.Mod, alloc.PathTo(n)), seen)
	})
}

// collectSlabMarkers records the slice objects a node marks as reused
// slabs: a reset to zero length (x = x[:0]) or a cap-guarded regrow
// (if cap(x) < n { x = make(...) }).
func collectSlabMarkers(p *Pass, nd ast.Node, slabs map[types.Object]bool) {
	switch nd := nd.(type) {
	case *ast.AssignStmt:
		if len(nd.Lhs) != len(nd.Rhs) {
			return
		}
		for i, lhs := range nd.Lhs {
			se, ok := ast.Unparen(nd.Rhs[i]).(*ast.SliceExpr)
			if !ok || !isZeroConst(p, se.High) {
				continue
			}
			if lo := slabObject(p, lhs); lo != nil && lo == slabObject(p, se.X) {
				slabs[lo] = true
			}
		}
	case *ast.IfStmt:
		obj := capGuardObj(p, nd.Cond)
		if obj == nil {
			return
		}
		ast.Inspect(nd.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && slabObject(p, lhs) == obj {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
						slabs[obj] = true
					}
				}
			}
			return true
		})
	}
}

// slabObject resolves a plain or selector expression to a slice-typed
// object (local, param, or struct field).
func slabObject(p *Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = p.ObjectOf(t)
	case *ast.SelectorExpr:
		obj = p.ObjectOf(t.Sel)
	default:
		return nil
	}
	if obj == nil || obj.Type() == nil {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return obj
}

// capGuardObj matches a condition mentioning cap(x) and returns x's
// object.
func capGuardObj(p *Pass, cond ast.Expr) types.Object {
	var obj types.Object
	ast.Inspect(cond, func(nd ast.Node) bool {
		if obj != nil {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "cap" {
			return true
		}
		if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return true
		}
		obj = slabObject(p, call.Args[0])
		return obj == nil
	})
	return obj
}

// isAppendTo reports whether rhs is append(target, ...) growing the same
// slice lhs names.
func isAppendTo(p *Pass, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	lobj := rootObject(p, lhs)
	aobj := rootObject(p, call.Args[0])
	return lobj != nil && lobj == aobj
}

// resetAppend matches append(x[:0], ...): growth into a buffer the
// caller resets first.
func resetAppend(pass *Pass, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	return ok && isZeroConst(pass, se.High)
}

// isZeroConst reports whether e is the integer constant 0.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// allocFunc applies the rule to one reachable function: every lexical
// loop, nested literals included. seen holds the positions already
// reported.
func allocFunc(mp *ModulePass, n *Node, chain []PathStep, seen map[token.Pos]bool) {
	pass, body := n.Pass, n.Decl.Body

	// The reuse disciplines are collected function-wide: the slabs the
	// function marks, slices made with an explicit capacity, and in-place
	// filter aliases.
	slabs := map[types.Object]bool{}
	ast.Inspect(n.Decl, func(nd ast.Node) bool {
		collectSlabMarkers(pass, nd, slabs)
		return true
	})
	madeWithCap := map[types.Object]bool{}
	sliceAlias := map[types.Object]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := rootObject(pass, lhs)
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				if isMakeCall(pass, rhs) && len(rhs.Args) == 3 {
					madeWithCap[obj] = true
				}
			case *ast.SliceExpr:
				sliceAlias[obj] = true
			}
		}
		return true
	})
	reused := func(obj types.Object) bool { return slabs[obj] || madeWithCap[obj] || sliceAlias[obj] }

	where := reachedVia(mp.Mod, chain, n)
	flag := func(pos token.Pos, what, advice string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		mp.Reportf(pos, chain,
			"hot-path allocation: %s inside a loop on a generator path%s; %s — see DESIGN.md §9's slab and scratch discipline",
			what, where, advice)
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch l := nd.(type) {
		case *ast.ForStmt:
			allocLoop(pass, l.Body, slabs, reused, flag)
		case *ast.RangeStmt:
			allocLoop(pass, l.Body, slabs, reused, flag)
		}
		return true // nested loops re-walk and dedupe by position
	})
}

// allocLoop flags the allocation shapes inside one loop body.
func allocLoop(pass *Pass, loopBody *ast.BlockStmt, slabs map[types.Object]bool, reused func(types.Object) bool,
	flag func(token.Pos, string, string)) {

	handledLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(loopBody, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if len(nd.Lhs) != len(nd.Rhs) {
				return true
			}
			for i, lhs := range nd.Lhs {
				rhs := nd.Rhs[i]
				obj := rootObject(pass, lhs)
				if isAppendTo(pass, lhs, rhs) {
					if !resetAppend(pass, rhs) && !reused(obj) {
						flag(rhs.Pos(), "cap-unguarded append into "+types.ExprString(lhs)+" grows per iteration",
							"preallocate with make(T, 0, n), adopt the slab grammar, or stream instead of collecting")
					}
				} else if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isMakeCall(pass, call) && !slabs[obj] {
					flag(call.Pos(), "make("+types.ExprString(call.Args[0])+", ...) allocates per iteration",
						"hoist the make and reset with x = x[:0], or cap-guard it (if cap(x) < n { x = make(...) })")
				}
			}
		case *ast.UnaryExpr:
			if cl, ok := ast.Unparen(nd.X).(*ast.CompositeLit); ok && nd.Op == token.AND {
				handledLit[cl] = true
				flag(nd.Pos(), "&"+allocLitName(pass, cl)+"{...} allocates per iteration",
					"hoist the value outside the loop and reuse it")
			}
		case *ast.CompositeLit:
			if handledLit[nd] {
				return true
			}
			if t := pass.TypeOf(nd); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(nd.Pos(), allocLitName(pass, nd)+" literal allocates per iteration",
						"hoist it, or fill a slab reset with x = x[:0] (slab grammar)")
				}
			}
		case *ast.CallExpr:
			if name, ok := sprintfFamily(pass, nd); ok {
				flag(nd.Pos(), "fmt."+name+" allocates its result per iteration",
					"format once outside the loop or append into a reused []byte")
			}
			if what, ok := allocConversion(pass, nd); ok {
				flag(nd.Pos(), what+" conversion copies per iteration",
					"keep one representation across the loop or reuse a slab")
			}
		case *ast.FuncLit:
			flag(nd.Pos(), "function literal allocates a closure per iteration",
				"hoist the closure (and the variables it captures) outside the loop")
		}
		return true // allocations inside a literal are audited too
	})
}

// isMakeCall matches the builtin make.
func isMakeCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := pass.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// sprintfFamily matches the per-call-allocating fmt formatters
// (fmt.Errorf is deliberately not one: it allocates on failure paths,
// which abort the run rather than repeat).
func sprintfFamily(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		return fn.Name(), true
	}
	return "", false
}

// allocConversion matches string↔[]byte/[]rune conversions, the ones
// that copy their operand.
func allocConversion(pass *Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	dst, src := tv.Type, pass.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return "", false
	}
	switch {
	case isStringKind(dst) && isByteishKind(src):
		return "[]byte→string", true
	case isByteishKind(dst) && isStringKind(src):
		return "string→" + types.TypeString(dst, nil), true
	}
	return "", false
}

func isStringKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteishKind(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allocLitName renders a composite literal's type for the message.
func allocLitName(pass *Pass, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	if t := pass.TypeOf(cl); t != nil {
		return t.String()
	}
	return "composite"
}
