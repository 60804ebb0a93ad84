package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanboundAnalyzer is the channel analog of growbound: a send into a
// channel from a record or accept hot loop reachable from the collection
// path must be bounded, or a stalled receiver parks the loop and the
// collector silently stops accepting — the failure mode the load-tested
// tier (ROADMAP item 3) must never exhibit. Three disciplines bound a
// send:
//
//   - select with a default case: the drop path (conventionally paired
//     with a drop counter the metrics endpoint exports);
//   - select with a shutdown or timer case: bounded backpressure — the
//     loop parks at most until cancellation or the deadline;
//   - receiver provably joined: the same function both spawns a
//     goroutine that receives from (or ranges over) the channel and
//     closes it after the loop — the owned-pipeline shape, where a send
//     only parks while a live consumer drains.
//
// Approximation rules (DESIGN.md §5):
//
//   - Buffering alone is NOT a bound: a buffered channel without a drop
//     path just delays the park by its capacity.
//   - Hot loops are accept loops (a loop body calling Accept on a
//     net.Listener) and growbound's record loops; sends inside function
//     literals nested in the loop still count — they run per iteration.
//   - The drop-counter convention next to select+default is not
//     verified, only the non-blocking shape.
//   - Reachability, chains and suppression mirror growbound: the finding
//     carries the call chain from a collection root, and a directive on
//     any chain step silences it.
var ChanboundAnalyzer = &Analyzer{
	Name:      "chanbound",
	Doc:       "sends into channels from record/accept hot loops on the collection path must be bounded: select+default drop, shutdown/timer case, or a joined receiver",
	RunModule: runChanbound,
}

// chanboundRootPkgs holds the collection-path entry packages: the live
// proxy tier, the replay harness and their commands.
var chanboundRootPkgs = []string{
	"internal/mnet/netproxy",
	"internal/mnet/replay",
	"cmd/wearproxy",
	"cmd/wearreplay",
}

func runChanbound(mp *ModulePass) {
	listener := mp.NetListener()
	g, mod := mp.Graph, mp.Mod
	var roots []*Node
	for _, n := range g.FuncsIn(chanboundRootPkgs) {
		if !n.Test {
			roots = append(roots, n)
		}
	}
	reach := g.ReachableFrom(roots)
	reported := map[string]bool{}
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !reach.Contains(n) {
			return
		}
		chain := pathSteps(mod, reach.PathTo(n))
		chanboundFunc(mp, n, listener, chain, reported)
	})
}

// chanboundFunc scans one reachable function for hot loops and judges
// every send inside them.
func chanboundFunc(mp *ModulePass, n *Node, listener *types.Interface, chain []PathStep, reported map[string]bool) {
	pass, mod := n.Pass, mp.Mod
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		body, kind := hotLoop(pass, mod, listener, nd)
		if body == nil {
			return true
		}
		ast.Inspect(body, func(inner ast.Node) bool {
			send, ok := inner.(*ast.SendStmt)
			if !ok {
				return true
			}
			chanboundSend(mp, n, send, kind, chain, reported)
			return true
		})
		return true // nested hot loops rescan; per-site positions dedupe
	})
}

// hotLoop classifies nd as an accept or record hot loop and returns its
// body.
func hotLoop(pass *Pass, mod *Module, listener *types.Interface, nd ast.Node) (*ast.BlockStmt, string) {
	if loop, body := recordLoop(pass, mod, nd); loop != nil {
		return body, "record"
	}
	var body *ast.BlockStmt
	switch nd := nd.(type) {
	case *ast.ForStmt:
		body = nd.Body
	case *ast.RangeStmt:
		body = nd.Body
	default:
		return nil, ""
	}
	if listener != nil && bodyCallsAccept(pass, body, listener) {
		return body, "accept"
	}
	return nil, ""
}

// bodyCallsAccept reports whether the loop body calls Accept on a
// net.Listener-implementing receiver.
func bodyCallsAccept(pass *Pass, body *ast.BlockStmt, listener *types.Interface) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isAcceptCall(pass, call, listener) {
			found = true
		}
		return !found
	})
	return found
}

// isAcceptCall matches x.Accept() where x implements net.Listener.
func isAcceptCall(pass *Pass, call *ast.CallExpr, listener *types.Interface) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Accept" {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	return types.Implements(t, listener) || types.Implements(types.NewPointer(t), listener)
}

// chanboundSend judges one send inside a hot loop.
func chanboundSend(mp *ModulePass, n *Node, send *ast.SendStmt, loopKind string, chain []PathStep, reported map[string]bool) {
	pass, mod := n.Pass, mp.Mod
	if sel := enclosingSelect(n.Decl.Body, send); sel != nil {
		if selectHasDefault(sel) || selectHasShutdownCase(pass, sel, true) {
			return
		}
	} else if receiverJoined(pass, n.Decl.Body, chanObject(pass, send.Chan)) {
		return
	}
	key := mod.Fset.Position(send.Pos()).String()
	if reported[key] {
		return
	}
	reported[key] = true
	where := ""
	if len(chain) > 0 {
		where = " (reached via " + renderSteps(chain) + " → " + n.DisplayName(mod) + ")"
	}
	mp.Reportf(send.Pos(), chain,
		"unbounded send: %s <- … inside an %s hot loop parks the collection path when the receiver stalls%s; add a select with a default drop path, a shutdown/timer case, or close-and-join the receiver (DESIGN.md §5)",
		types.ExprString(send.Chan), loopKind, where)
}

// enclosingSelect returns the select statement whose comm clause is this
// send, or nil when the send is a plain statement.
func enclosingSelect(scope *ast.BlockStmt, send *ast.SendStmt) *ast.SelectStmt {
	var found *ast.SelectStmt
	ast.Inspect(scope, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == send {
				found = sel
				return false
			}
		}
		return true
	})
	return found
}

// selectHasDefault reports whether the select carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// selectHasShutdownCase reports whether any comm clause of the select
// receives from a done source (shutdownRecvSource; timers says whether a
// timer/ticker C counts).
func selectHasShutdownCase(pass *Pass, sel *ast.SelectStmt, timers bool) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var src ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				src = ue.X
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if ue, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					src = ue.X
				}
			}
		}
		if src == nil {
			continue
		}
		if shutdownRecvSource(pass, src, timers) {
			return true
		}
	}
	return false
}

// shutdownRecvSource is the one done vocabulary: it classifies a receive
// source as a cancellation signal — a ctx.Done()-style call or a
// shutdown-named channel — or, when timers is set, as a deadline: the C
// field of a time.Timer/time.Ticker. A timer bounds one wait, so it
// counts for a site that must not park forever, never as a goroutine's
// exit (a loop on a ticker never ends).
func shutdownRecvSource(pass *Pass, src ast.Expr, timers bool) bool {
	if call, ok := ast.Unparen(src).(*ast.CallExpr); ok {
		id := refIdent(call.Fun)
		return id != nil && id.Name == "Done"
	}
	if sel, ok := ast.Unparen(src).(*ast.SelectorExpr); ok && timers && sel.Sel.Name == "C" {
		if t := pass.TypeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if s := t.String(); s == "time.Timer" || s == "time.Ticker" {
				return true
			}
		}
	}
	id := refIdent(src)
	return id != nil && shutdownName(id.Name)
}

// chanObject resolves a channel expression to the variable or field
// object naming it: ch to the var, p.sem to the field sem.
func chanObject(pass *Pass, e ast.Expr) types.Object {
	return fieldOrVarObject(pass, e)
}

// receiverJoined reports the owned-pipeline shape: the function both
// spawns a goroutine receiving from (or ranging over) the channel and
// closes it. The close proves the sender owns the lifecycle; the spawned
// receiver proves a consumer drains while the loop runs.
func receiverJoined(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	closed, consumed := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if closed && consumed {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && len(n.Args) == 1 {
					if chanObject(pass, n.Args[0]) == obj {
						closed = true
					}
				}
			}
		case *ast.GoStmt:
			lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				switch inner := inner.(type) {
				case *ast.UnaryExpr:
					if inner.Op == token.ARROW && chanObject(pass, inner.X) == obj {
						consumed = true
					}
				case *ast.RangeStmt:
					if chanObject(pass, inner.X) == obj {
						if t := pass.TypeOf(inner.X); t != nil {
							if _, isChan := t.Underlying().(*types.Chan); isChan {
								consumed = true
							}
						}
					}
				}
				return !consumed
			})
		}
		return true
	})
	return closed && consumed
}
