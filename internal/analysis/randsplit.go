package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RandsplitAnalyzer enforces RNG-stream independence — the property a
// parallel generator's reproducibility rests on (ROADMAP item 2): every
// subscriber's randx stream must be derived by Split from stable
// identity, never shared between goroutines or keyed by iteration
// order. Four rules:
//
//   - A shard callback must not draw from a captured *randx.Rand:
//     workers would interleave on one stream and the schedule would
//     decide every sample. Split — which never advances the parent — is
//     the sanctioned way to derive per-shard streams and stays silent.
//   - A *randx.Rand value must not flow into more than one go
//     statement, nor into a goroutine spawned inside a loop: two
//     goroutines drawing from one stream race the stream state.
//     Handing each goroutine its own Split child (go f(r.Split(...)))
//     is the sanctioned spelling and does not count as a flow of r.
//   - Once a Split child is handed to another goroutine, the parent is
//     split-only: later draws make the parent's stream position depend
//     on code order around the fan-out instead of the key discipline.
//   - On paths reachable from the generator (internal/gen roots), Split
//     labels must be constants and Split keys must derive from stable
//     identity — IMSI, parameters, constants, simulation-time
//     coordinates (simtime.Day/Week) — never from a for-loop counter or
//     a range variable, whose values depend on iteration order and
//     resharding. Diagnostics carry the call chain from the root.
//
// Approximation rules (DESIGN.md §5): captured draws are matched
// syntactically in the callback body (draws inside callees of the
// callback are the call graph's attribution, not this check's); the key
// rule inspects the key expression's identifiers only, so a local
// laundered from a counter passes — the byte-identity gates are the
// backstop, and the rule's value is forcing the stable-identity
// derivation to be spelled at the Split site.
var RandsplitAnalyzer = &Analyzer{
	Name:      "randsplit",
	Doc:       "randx streams must stay goroutine-private and Split keys must derive from stable identity",
	RunModule: runRandsplit,
}

// randsplitRootPkgs scopes the key-discipline rule to generator paths.
var randsplitRootPkgs = []string{"internal/gen/..."}

// isRandType matches *randx.Rand / randx.Rand across type-check
// universes.
func isRandType(mod *Module, t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Rand" && n.Obj().Pkg().Path() == mod.Name+"/internal/randx"
}

// isStableTimeType matches the simulation-time coordinates simtime.Day
// and simtime.Week: per-day and per-week identities, not iteration
// order.
func isStableTimeType(mod *Module, t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != mod.Name+"/internal/simtime" {
		return false
	}
	return n.Obj().Name() == "Day" || n.Obj().Name() == "Week"
}

// randSplitCall matches a call to (*randx.Rand).Split, returning the
// receiver expression.
func randSplitCall(p *Pass, mod *Module, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Split" {
		return nil, false
	}
	if !isRandType(mod, p.TypeOf(sel.X)) {
		return nil, false
	}
	return sel.X, true
}

// randDrawCall matches a state-advancing method call on a rand value
// (any method but Split), returning the receiver expression and method
// name.
func randDrawCall(p *Pass, mod *Module, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name == "Split" {
		return nil, "", false
	}
	if !isRandType(mod, p.TypeOf(sel.X)) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func runRandsplit(mp *ModulePass) {
	reported := map[string]bool{}
	randsplitShardCaptures(mp, reported)
	mp.Graph.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !n.InModule {
			return
		}
		randsplitGoFlow(mp, n, reported)
	})
	randsplitKeyDiscipline(mp, reported)
}

func (mp *ModulePass) reportOnce(reported map[string]bool, pos token.Pos, path []PathStep, format string, args ...any) {
	key := mp.Mod.Fset.Position(pos).String() + "#" + mp.check
	if reported[key] {
		return
	}
	reported[key] = true
	mp.Reportf(pos, path, format, args...)
}

// randsplitShardCaptures flags draws from a captured rand inside shard
// callbacks (rule one).
func randsplitShardCaptures(mp *ModulePass, reported map[string]bool) {
	mod := mp.Mod
	for _, cb := range shardCallbacks(mp) {
		du := newDefUse(cb.pass, cb.ft, cb.body)
		ast.Inspect(cb.body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := randDrawCall(cb.pass, mod, call)
			if !ok {
				return true
			}
			root := rootObject(cb.pass, recv)
			if root == nil || du.ClassOf(root) != ClassCaptured {
				return true
			}
			mp.reportOnce(reported, call.Pos(), cb.chain,
				"rng capture: shard callback %s draws %s from captured *randx.Rand %s, interleaving every worker on one stream (registered via %s); derive a per-shard child with Split outside the callback",
				cb.name, method, types.ExprString(recv), renderSteps(cb.chain))
			return true
		})
	}
}

// randsplitGoFlow applies the go-statement rules to one function body:
// a rand flowing into two go statements or into a loop-spawned
// goroutine, and draws on a parent after a Split child was handed off.
func randsplitGoFlow(mp *ModulePass, n *Node, reported map[string]bool) {
	mod, pass, body := mp.Mod, n.Pass, n.Decl.Body

	var loops []ast.Node
	var gos []*ast.GoStmt
	children := map[types.Object]types.Object{} // Split-child local → parent
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, nd)
		case *ast.GoStmt:
			gos = append(gos, nd)
		case *ast.AssignStmt:
			if len(nd.Lhs) != len(nd.Rhs) {
				return true
			}
			for i, lhs := range nd.Lhs {
				call, ok := ast.Unparen(nd.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				recv, ok := randSplitCall(pass, mod, call)
				if !ok {
					continue
				}
				parent := rootObject(pass, recv)
				child := rootObject(pass, lhs)
				if parent != nil && child != nil {
					children[child] = parent
				}
			}
		}
		return true
	})
	if len(gos) == 0 {
		return
	}

	// handoff is the earliest go statement that received a Split child
	// of each parent.
	handoff := map[types.Object]token.Pos{}
	seenIn := map[types.Object]int{} // rand object → go statements it flowed into
	for _, g := range gos {
		refs := randGoRefs(pass, mod, g)
		for _, ref := range refs {
			obj, pos := ref.obj, ref.pos
			// Declared inside the go subtree (the goroutine's own state)
			// never counts.
			if obj.Pos() >= g.Pos() && obj.Pos() < g.End() {
				continue
			}
			if parent := children[obj]; parent != nil {
				// A Split child handed off: sanctioned, but arms the
				// split-only rule for its parent.
				if _, ok := handoff[parent]; !ok {
					handoff[parent] = g.Pos()
				}
				continue
			}
			seenIn[obj]++
			if seenIn[obj] > 1 {
				mp.reportOnce(reported, pos, nil,
					"rng fan-out: *randx.Rand %s flows into more than one go statement; goroutines drawing from one stream race its state — hand each goroutine its own Split child (go f(r.Split(label, id)))",
					obj.Name())
				continue
			}
			for _, loop := range loops {
				if g.Pos() >= loop.Pos() && g.Pos() < loop.End() &&
					!(obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()) {
					mp.reportOnce(reported, pos, nil,
						"rng fan-out: *randx.Rand %s is captured by a goroutine spawned inside a loop, sharing one stream across every iteration's goroutine; hand each iteration its own Split child",
						obj.Name())
					break
				}
			}
		}
		// A Split call spelled directly inside the go statement also
		// hands a child off.
		ast.Inspect(g, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, ok := randSplitCall(pass, mod, call)
			if !ok {
				return true
			}
			if parent := rootObject(pass, recv); parent != nil {
				if _, ok := handoff[parent]; !ok {
					handoff[parent] = g.Pos()
				}
			}
			return true
		})
	}
	if len(handoff) == 0 {
		return
	}

	// Split-only after fan-out: draws on a parent past its first
	// handoff flag.
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := randDrawCall(pass, mod, call)
		if !ok {
			return true
		}
		root := rootObject(pass, recv)
		if root == nil {
			return true
		}
		pos, armed := handoff[root]
		if !armed || call.Pos() <= pos {
			return true
		}
		mp.reportOnce(reported, call.Pos(), nil,
			"rng order: parent stream %s is drawn from (%s) after a Split child was handed to another goroutine; a fanned-out parent is split-only — draw before the fan-out or derive another child",
			root.Name(), method)
		return true
	})
}

// randRef is one rand-typed identifier occurrence.
type randRef struct {
	obj types.Object
	pos token.Pos
}

// randGoRefs collects the rand-typed variables a go statement captures,
// in source order, excluding receivers of Split calls (the sanctioned
// hand-a-child spelling) and duplicate mentions.
func randGoRefs(pass *Pass, mod *Module, g *ast.GoStmt) []randRef {
	excluded := map[*ast.Ident]bool{}
	ast.Inspect(g, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := randSplitCall(pass, mod, call)
		if !ok {
			return true
		}
		ast.Inspect(recv, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok {
				excluded[id] = true
			}
			return true
		})
		return true
	})
	var out []randRef
	seen := map[types.Object]bool{}
	ast.Inspect(g, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || excluded[id] {
			return true
		}
		obj := pass.ObjectOf(id)
		v, isVar := obj.(*types.Var)
		if !isVar || !isRandType(mod, v.Type()) || seen[obj] {
			return true
		}
		seen[obj] = true
		out = append(out, randRef{obj: obj, pos: id.Pos()})
		return true
	})
	return out
}

// randsplitKeyDiscipline applies the Split-key rule over every function
// reachable from the generator roots.
func randsplitKeyDiscipline(mp *ModulePass, reported map[string]bool) {
	g, mod := mp.Graph, mp.Mod
	reach := g.ReachableFromPkgs(randsplitRootPkgs)
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !reach.Contains(n) {
			return
		}
		chain := pathSteps(mod, reach.PathTo(n))
		randsplitKeys(mp, n, chain, reported)
	})
}

// randsplitKeys checks every Split call in one reachable body.
func randsplitKeys(mp *ModulePass, n *Node, chain []PathStep, reported map[string]bool) {
	pass, mod := n.Pass, mp.Mod
	unstable := unstableIterVars(pass, mod, n.Decl.Body)
	where := reachedVia(mod, chain, n)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := randSplitCall(pass, mod, call); !ok || len(call.Args) != 2 {
			return true
		}
		label, key := call.Args[0], call.Args[1]
		if tv, ok := pass.Info.Types[label]; !ok || tv.Value == nil {
			mp.reportOnce(reported, label.Pos(), chain,
				"rng key discipline: Split label %s is not a constant; labels name the derived stream and must be compile-time constants on generator paths%s",
				types.ExprString(label), where)
		}
		ast.Inspect(key, func(inner ast.Node) bool {
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			role, bad := unstable[pass.ObjectOf(id)]
			if !bad {
				return true
			}
			mp.reportOnce(reported, key.Pos(), chain,
				"rng key discipline: Split key %s derives from %s %s, so the stream assignment depends on iteration order and resharding; key children off stable subscriber identity (IMSI, parameters, constants, simtime coordinates) instead%s",
				types.ExprString(key), role, id.Name, where)
			return false
		})
		return true
	})
}

// unstableIterVars collects the iteration-order-dependent variables of
// one body: for-init counters and range key/value variables (value only
// for maps — a slice-range element carries its own identity). Variables
// of simulation-time type (simtime.Day/Week) are stable per-period
// coordinates and never count.
func unstableIterVars(pass *Pass, mod *Module, body *ast.BlockStmt) map[types.Object]string {
	out := map[types.Object]string{}
	add := func(e ast.Expr, role string) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil || isStableTimeType(mod, obj.Type()) {
			return
		}
		out[obj] = role
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ForStmt:
			if as, ok := nd.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					add(lhs, "loop counter")
				}
			}
		case *ast.RangeStmt:
			isMap := false
			if t := pass.TypeOf(nd.X); t != nil {
				_, isMap = t.Underlying().(*types.Map)
			}
			if isMap {
				if nd.Key != nil {
					add(nd.Key, "map-range variable")
				}
				if nd.Value != nil {
					add(nd.Value, "map-range variable")
				}
			} else if nd.Key != nil {
				add(nd.Key, "range index")
			}
		}
		return true
	})
	return out
}
