package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TickstopAnalyzer enforces the timer-lifecycle invariant of the
// collection tier: a time.Ticker or time.Timer created in a function
// must be stopped on every exit path, or its runtime timer outlives the
// work it paced — under connection churn the drain/dial helpers mint one
// per call, and unstopped timers are a slow leak the long-running proxy
// tier (DESIGN.md §6) cannot afford. time.Tick and time.After inside a
// loop are flagged outright: each iteration allocates a timer nothing
// can ever stop.
//
// Approximation rules (DESIGN.md §5):
//
//   - defer t.Stop() — directly or inside a deferred literal — is the
//     sanctioned discipline and clears every exit path at once.
//   - With only a plain t.Stop(), any return statement textually between
//     the creation and the first Stop is an escaping exit path and
//     flags; returns after a Stop pass. This is the same textual
//     discipline lockheld uses — branches can cheat it both ways, and
//     the remediation (defer the Stop) removes the ambiguity.
//   - A timer whose lifecycle is handed off is skipped: returned,
//     stored into a field/map/slice/composite, sent on a channel, passed
//     as a call argument, aliased to another variable, or captured by any
//     function literal (a deferred or spawned closure may own the Stop).
//     The under-approximation is deliberate — the owner's function is
//     judged where the handoff lands.
//   - Function literals are judged as their own bodies: a timer created
//     inside a closure needs its Stop (or defer) inside that closure.
//   - Test files are exempt: t.Cleanup and test-scoped leaks are the
//     harness's business.
//   - Only the packages allowed to read the clock are judged: everywhere
//     else every timer constructor is already a detreach finding.
var TickstopAnalyzer = &Analyzer{
	Name: "tickstop",
	Doc:  "time.Ticker/time.Timer must be stopped on all exit paths; time.Tick/time.After in a loop leak a timer per iteration",
	Run:  runTickstop,
}

func runTickstop(p *Pass) {
	if !matchRel(p.Rel, clockBan.allowed) {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					tickstopBody(p, n.Body)
				}
			case *ast.FuncLit:
				tickstopBody(p, n.Body)
			}
			return true
		})
	}
}

// timerMake holds one tracked time.NewTimer/NewTicker creation.
type timerMake struct {
	obj  types.Object
	pos  token.Pos
	kind string // "Timer" or "Ticker"
}

// tickstopBody judges one function body. Nested function literals are
// excluded from the statement scan — they are judged as their own
// bodies — but included in the handoff scan: a capture is a handoff.
func tickstopBody(p *Pass, body *ast.BlockStmt) {
	var makes []timerMake
	tickstopScan(p, body, func(as ast.Node, lhs ast.Expr, rhs ast.Expr) {
		kind := timerCtor(p, rhs)
		if kind == "" {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.ObjectOf(id)
		if obj == nil {
			return
		}
		makes = append(makes, timerMake{obj: obj, pos: as.Pos(), kind: kind})
	})
	tickstopLoopCtors(p, body)
	for _, m := range makes {
		tickstopJudge(p, body, m)
	}
}

// tickstopScan walks the body's own statements (not nested literals) and
// reports each single-variable assignment or declaration to emit.
func tickstopScan(p *Pass, body *ast.BlockStmt, emit func(at ast.Node, lhs, rhs ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					emit(n, n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					emit(n, n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
}

// timerCtor matches time.NewTimer/time.NewTicker and names the produced
// kind.
func timerCtor(p *Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := timePkgFunc(p, call)
	if fn == nil {
		return ""
	}
	switch fn.Name() {
	case "NewTimer", "AfterFunc":
		if fn.Name() == "AfterFunc" {
			return "" // owns a goroutine; ctxflow territory, not lifecycle
		}
		return "Timer"
	case "NewTicker":
		return "Ticker"
	}
	return ""
}

// timePkgFunc resolves a call to a package-level function of package
// time, or nil. The receiver check matters: time.Time.After and friends
// are methods that share names with the package functions.
func timePkgFunc(p *Pass, call *ast.CallExpr) *types.Func {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// tickstopLoopCtors flags time.Tick and time.After calls inside any
// for/range loop in the body: one unstoppable runtime timer per
// iteration.
func tickstopLoopCtors(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // judged as its own body
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		ast.Inspect(loopBody, func(inner ast.Node) bool {
			if _, ok := inner.(*ast.FuncLit); ok {
				return false
			}
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := timePkgFunc(p, call)
			if fn == nil {
				return true
			}
			if name := fn.Name(); name == "Tick" || name == "After" {
				p.Reportf(call.Pos(),
					"time.%s inside a loop leaks one unstoppable timer per iteration; hoist a time.NewTicker/NewTimer out of the loop and defer its Stop (DESIGN.md §5)",
					name)
			}
			return true
		})
		return true // nested loops re-scan; the per-call positions dedupe visually
	})
}

// tickstopJudge applies the exit-path discipline to one tracked timer.
func tickstopJudge(p *Pass, body *ast.BlockStmt, m timerMake) {
	if timerDeferStop(p, body, m.obj) {
		return
	}
	if timerHandoff(p, body, m) {
		return // lifecycle handed off; judged where it lands (DESIGN.md §5)
	}
	stops := timerStops(p, body, m.obj)
	if len(stops) == 0 {
		p.Reportf(m.pos,
			"time.%s is never stopped: no Stop on any exit path; defer %s.Stop() right after the New%s (DESIGN.md §5)",
			m.kind, m.obj.Name(), m.kind)
		return
	}
	firstStop := stops[0]
	for _, s := range stops {
		if s < firstStop {
			firstStop = s
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() > m.pos && ret.Pos() < firstStop {
			p.Reportf(ret.Pos(),
				"time.%s %s leaks on this return path: created before it, stopped only after; defer %s.Stop() instead of a plain Stop (DESIGN.md §5)",
				m.kind, m.obj.Name(), m.obj.Name())
		}
		return true
	})
}

// timerStops collects the positions of plain (non-deferred) obj.Stop()
// calls in the body's own statements, in source order.
func timerStops(p *Pass, body *ast.BlockStmt, obj types.Object) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if isStopCall(p, n, obj) {
				out = append(out, n.Pos())
			}
		}
		return true
	})
	return out
}

// timerDeferStop reports whether the body defers obj.Stop(), directly or
// inside a deferred function literal.
func timerDeferStop(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isStopCall(p, ds.Call, obj) {
			found = true
			return false
		}
		if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok && isStopCall(p, call, obj) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isStopCall matches obj.Stop().
func isStopCall(p *Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Stop" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && p.ObjectOf(id) == obj
}

// timerHandoff reports whether the timer's lifecycle leaves the body:
// returned, stored into a composite/field/map/slice, sent on a channel,
// passed as a call argument, aliased to another variable, or captured by
// a nested function literal — a handed-off timer is judged where the
// handoff lands.
func timerHandoff(p *Pass, body *ast.BlockStmt, m timerMake) bool {
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == m.obj {
				found = true
			}
			return !found
		})
		return found
	}
	handoff := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handoff {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentions(res) {
					handoff = true
				}
			}
		case *ast.SendStmt:
			if mentions(n.Value) {
				handoff = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if mentions(elt) {
					handoff = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if mentions(arg) {
					handoff = true
				}
			}
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) && n.Pos() != m.pos && mentions(n.Rhs[i]) {
					handoff = true // alias or store: y := t, s.t = t, m[k] = t
				}
			}
		case *ast.FuncLit:
			// A capture hands the lifecycle to the closure (a deferred
			// closure Stop is recognised earlier, before this scan).
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && p.ObjectOf(id) == m.obj {
					handoff = true
				}
				return !handoff
			})
			return false
		}
		return !handoff
	})
	return handoff
}
