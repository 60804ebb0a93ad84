package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RandsplitAnalyzer enforces the Split-key discipline a parallel
// generator's reproducibility rests on (DESIGN.md §9): on paths
// reachable from the generator (internal/gen roots), Split labels must
// be constants and Split keys must derive from stable identity — IMSI,
// parameters, constants, simulation-time coordinates (simtime.Day/Week)
// — never from a for-loop counter or a range variable, whose values
// depend on iteration order and resharding. Diagnostics carry the call
// chain from the root.
//
// Approximation rules (DESIGN.md §5): the rule inspects the key
// expression's identifiers only, so a local laundered from a counter
// passes — the byte-identity gates are the backstop, and the rule's
// value is forcing the stable-identity derivation to be spelled at the
// Split site. Two goroutines drawing from one stream are left to the
// race detector: CI's go test -race runs the generator's fan-out under
// the parallel-equivalence tests.
var RandsplitAnalyzer = &Analyzer{
	Name:      "randsplit",
	Doc:       "Split labels on generator paths must be constants and Split keys must derive from stable identity",
	RunModule: randsplitKeyDiscipline,
}

// randsplitRootPkgs scopes the rule to generator paths.
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

// isRandSplitCall matches a call to (*randx.Rand).Split.
func isRandSplitCall(p *Pass, mod *Module, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Split" && isRandType(mod, p.TypeOf(sel.X))
}

// randsplitKeyDiscipline applies the Split-key rule over every function
// reachable from the generator roots.
func randsplitKeyDiscipline(mp *ModulePass) {
	g, mod := mp.Graph, mp.Mod
	reach := g.ReachableFromPkgs(randsplitRootPkgs)
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !reach.Contains(n) {
			return
		}
		chain := pathSteps(mod, reach.PathTo(n))
		randsplitKeys(mp, n, chain)
	})
}

// randsplitKeys checks every Split call in one reachable body.
func randsplitKeys(mp *ModulePass, n *Node, chain []PathStep) {
	pass, mod := n.Pass, mp.Mod
	unstable := unstableIterVars(pass, mod, n.Decl.Body)
	where := reachedVia(mod, chain, n)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isRandSplitCall(pass, mod, call) || len(call.Args) != 2 {
			return true
		}
		label, key := call.Args[0], call.Args[1]
		if tv, ok := pass.Info.Types[label]; !ok || tv.Value == nil {
			mp.Reportf(label.Pos(), chain,
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
			mp.Reportf(key.Pos(), chain,
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
