package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtxflowAnalyzer is the collection-path and goroutine-lifecycle check.
// It applies five rules, each at its own scope (DESIGN.md §5). Two judge
// sites:
//
//   - Conn I/O (connIOPkgs, non-test): every raw net.Conn Read or Write
//     needs a SetDeadline-family call for its direction — SetDeadline
//     guards both — in its function, or in a caller on every path into it.
//   - Hot-loop send (functions reachable from the collection tier,
//     ctxflowPkgs, non-test): a send inside a record loop (the membound
//     grammar) or an accept loop, nested literals included, must be
//     selected with a default drop path or a shutdown/timer case, or go to
//     a receiver the function itself spawns and closes the channel on (the
//     owned pipeline). Buffering alone is not a bound: it only delays the
//     park by its capacity.
//
// Three make one pass over every go statement in the module and resolve
// what each one spawns once — a function literal, a named function, or a
// func value (skipped: unresolvable, a documented under-approximation):
//
//   - WaitGroup placement (whole module, test files included): no
//     wg.Add inside the spawned literal, where the spawner can reach Wait
//     first, and no literal spawned after wg.Add whose body neither calls
//     wg.Done nor waits on the group. A body that calls Wait is the
//     group's waiter (the fan-in closer), not a worker it guards.
//   - Bounded exit at the go statement (exitPkgs outside the collection
//     tier, non-test): a spawned body that can block — per the blocking
//     fixpoint lockheld uses — must join a WaitGroup, receive a done
//     signal, or close a completion channel; a body that blocks through
//     channel operations alone may instead make only operations the site
//     vocabulary below bounds, with timer and ticker receives excluded.
//   - Per-site walk (the collection tier, ctxflowPkgs, non-test): every
//     potentially-parking site on the spawned path, followed through the
//     call graph, must be cancellable. It is the only lifecycle verdict on
//     the sites it models, so a spawn is reported once. A spawn whose path
//     flags no site but reaches a blocking leaf the walk does not model
//     (sync Wait, time.Sleep, a net call other than Read, Write or
//     Accept), and a bodiless target the walk cannot enter (go
//     wg.Wait()), are judged at the go statement by the bounded-exit
//     disciplines.
//
// One position gets one finding, from the first rule in the order above
// to flag it: a conn I/O site or hot-loop send the walk also reaches
// keeps its sharper message, and a guarded spawn with no Done is reported
// by the placement rule alone.
//
// The site vocabulary both lifecycle rules share: a send into, or a
// receive from, a channel the containing function made with constant
// capacity (buffered handoff; the dial-reaper shape — the rule assumes
// some sender fills it); a receive of a token the containing function
// itself sends (semaphore); a receive from a done source
// (shutdownRecvSource: ctx.Done(), a done/stop-named channel, and for
// the walk a timer or ticker C); and a select with a default or such a
// case. The walk adds three disciplines of its own:
//
//   - a body that calls wg.Done is a joined lifecycle: some owner waits,
//     so its channel operations are bounded;
//   - an Accept loop must visibly observe a done signal — a join does not
//     unpark a kernel accept, and the gate bounds the accept/Close race
//     (closing the listener from another function is invisible:
//     documented over-approximation);
//   - raw net.Conn I/O must be deadline-guarded for its direction in its
//     function, in the spawning function, or along the spawn chain (the
//     conn-I/O rule's facts, accumulated per hop).
//
// The walk never descends into a nested go statement's body — that is
// its own spawn — and a guard armed in a sibling call is invisible.
var CtxflowAnalyzer = &Analyzer{
	Name:      "ctxflow",
	Doc:       "collection path and goroutine lifecycle: deadline-guarded conn I/O, bounded hot-loop sends, WaitGroup Add before the spawn and Done in it, a bounded exit for every spawn, and cancellable blocking sites on collection-tier goroutine paths",
	RunModule: runCtxflow,
}

// ctxflowPkgs is the collection tier, whose spawns the per-site walk
// judges and whose reach the hot-loop send rule covers: the live proxy
// and replay packages and their commands.
var ctxflowPkgs = []string{
	"internal/mnet/netproxy",
	"internal/mnet/replay",
	"cmd/wearproxy",
	"cmd/wearreplay",
}

// exitPkgs scopes the bounded-exit rule to the packages that own
// long-lived goroutines: the measurement network tier, the shard
// runtime, the commands and the runnable examples.
var exitPkgs = []string{"internal/mnet/...", "internal/shard", "cmd/...", "examples/..."}

// connIOPkgs scopes the conn-I/O rule: the collection path is the only
// code that reads and writes real sockets, and DESIGN.md §6 promises none
// of it can wedge on a dead peer.
var connIOPkgs = []string{"internal/mnet/..."}

// ctxGuards is the set of deadline directions armed in one function, or
// accumulated along a spawn chain.
type ctxGuards struct{ read, write bool }

func (g ctxGuards) add(f *deadlineFacts) ctxGuards {
	return ctxGuards{read: g.read || f.guards.read, write: g.write || f.guards.write}
}

// covers reports whether a deadline is armed for the I/O direction.
func (g ctxGuards) covers(write bool) bool {
	if write {
		return g.write
	}
	return g.read
}

// ctxflow is one run's state: the interface types, the blocking
// fixpoint, per-node memos the walk fills on demand, and the positions
// already reported.
type ctxflow struct {
	mp       *ModulePass
	conn     *types.Interface
	listener *types.Interface
	blocking map[*Node]bool
	facts    map[*Node]*deadlineFacts
	goExt    map[*Node][][2]token.Pos
	reported map[token.Pos]bool
}

func runCtxflow(mp *ModulePass) {
	c := &ctxflow{
		mp:       mp,
		conn:     mp.NetConn(),
		listener: mp.NetListener(),
		blocking: mp.Graph.BlockingNodes(),
		facts:    map[*Node]*deadlineFacts{},
		goExt:    map[*Node][][2]token.Pos{},
		reported: map[token.Pos]bool{},
	}
	c.connIO()
	c.hotSends()
	for _, u := range mp.Mod.Units {
		pass, _ := mp.Mod.pass(u)
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				var n *Node // nil in a package-level initializer
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pass.ObjectOf(fd.Name).(*types.Func); ok {
						n = mp.Graph.Nodes[fn.FullName()]
					}
				}
				pending := map[*ast.GoStmt][]string{}
				ast.Inspect(decl, func(nd ast.Node) bool {
					switch nd := nd.(type) {
					case *ast.BlockStmt:
						wgPending(pass, nd, pending)
					case *ast.GoStmt:
						c.spawn(n, pass, nd, pending[nd])
					}
					return true
				})
			}
		}
	}
}

// connIO applies the conn-I/O rule.
func (c *ctxflow) connIO() {
	mod := c.mp.Mod
	for _, n := range c.mp.Graph.FuncsIn(connIOPkgs) {
		if n.Test {
			continue
		}
		f := c.factsOf(n)
		for _, site := range f.io {
			if f.guards.covers(site.write) {
				continue
			}
			entry, chain := c.unguardedEntry(n, site.write)
			if entry == nil {
				continue
			}
			verb, guard := site.verbs()
			from := ""
			if entry != n {
				from = " (unguarded entry " + entry.DisplayName(mod) + ": " + renderChain(mod, chain) + ")"
			}
			c.report(site.pos, pathSteps(mod, chain),
				"%s.%s can park forever: no %s/SetDeadline in %s or on every caller path into it%s",
				site.expr, verb, guard, n.DisplayName(mod), from)
		}
	}
}

// unguardedEntry walks the caller graph backwards from n looking for a
// path every function of which lacks a matching deadline guard, ending
// at an entry (a function with no non-test module callers). It returns
// that entry and the unguarded call chain entry→…→n, or nil when every
// path into n is guarded. Test callers are skipped: a test harness
// driving an unexported helper is a controlled environment, and the
// helper is reported through its production entries instead.
func (c *ctxflow) unguardedEntry(n *Node, write bool) (*Node, []Edge) {
	type item struct {
		n     *Node
		chain []Edge // reversed: edge into n first
	}
	seen := map[*Node]bool{n: true}
	queue := []item{{n: n}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		entry := true
		for _, e := range it.n.In {
			caller := e.Caller
			if caller.Test || !caller.InModule {
				continue
			}
			entry = false
			if seen[caller] {
				continue
			}
			seen[caller] = true
			if c.factsOf(caller).guards.covers(write) {
				continue // this path is guarded; others may not be
			}
			queue = append(queue, item{n: caller, chain: append(append([]Edge(nil), it.chain...), e)})
		}
		if entry {
			chain := make([]Edge, 0, len(it.chain))
			for i := len(it.chain) - 1; i >= 0; i-- {
				chain = append(chain, it.chain[i])
			}
			return it.n, chain
		}
	}
	return nil, nil
}

// hotSends applies the hot-loop send rule to every function reachable
// from the collection tier.
func (c *ctxflow) hotSends() {
	g, mod := c.mp.Graph, c.mp.Mod
	reach := g.ReachableFromPkgs(ctxflowPkgs)
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test || !reach.Contains(n) {
			return
		}
		chain := pathSteps(mod, reach.PathTo(n))
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			body, kind := hotLoop(n.Pass, mod, c.listener, nd)
			if body == nil {
				return true
			}
			ast.Inspect(body, func(inner ast.Node) bool {
				if send, ok := inner.(*ast.SendStmt); ok {
					c.hotSend(n, send, kind, chain)
				}
				return true
			})
			return true // nested hot loops rescan; positions dedupe
		})
	})
}

// hotLoop classifies nd as a record or accept loop and returns its body.
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
	}
	if body == nil || listener == nil {
		return nil, ""
	}
	accepts := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAcceptCall(pass, call, listener) {
			accepts = true
		}
		return !accepts
	})
	if !accepts {
		return nil, ""
	}
	return body, "accept"
}

// isAcceptCall matches x.Accept() where x implements net.Listener.
func isAcceptCall(pass *Pass, call *ast.CallExpr, listener *types.Interface) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Accept" {
		return false
	}
	t := pass.TypeOf(sel.X)
	return t != nil && (types.Implements(t, listener) || types.Implements(types.NewPointer(t), listener))
}

// hotSend judges one send inside a hot loop.
func (c *ctxflow) hotSend(n *Node, send *ast.SendStmt, loopKind string, chain []PathStep) {
	pass := n.Pass
	if sel := enclosingSelect(n.Decl.Body, send); sel != nil {
		if selectHasDefault(sel) || selectHasShutdownCase(pass, sel, true) {
			return
		}
	} else if receiverJoined(pass, n.Decl.Body, fieldOrVarObject(pass, send.Chan)) {
		return
	}
	c.report(send.Pos(), chain,
		"unbounded send: %s <- … inside an %s hot loop parks the collection path when the receiver stalls%s; add a select with a default drop path, a shutdown/timer case, or close-and-join the receiver (DESIGN.md §5)",
		types.ExprString(send.Chan), loopKind, reachedVia(c.mp.Mod, chain, n))
}

// enclosingSelect returns the select statement whose comm clause is this
// send, or nil when the send is a plain statement.
func enclosingSelect(scope *ast.BlockStmt, send *ast.SendStmt) *ast.SelectStmt {
	var found *ast.SelectStmt
	ast.Inspect(scope, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok && found == nil {
			for _, clause := range sel.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == send {
					found = sel
				}
			}
		}
		return found == nil
	})
	return found
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
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && fieldOrVarObject(pass, n.Args[0]) == obj {
					closed = true
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
					consumed = consumed || inner.Op == token.ARROW && fieldOrVarObject(pass, inner.X) == obj
				case *ast.RangeStmt:
					if t := pass.TypeOf(inner.X); t != nil && fieldOrVarObject(pass, inner.X) == obj {
						_, isChan := t.Underlying().(*types.Chan)
						consumed = consumed || isChan
					}
				}
				return !consumed
			})
		}
		return !closed || !consumed
	})
	return closed && consumed
}

// connIOSite is one raw Read/Write on a net.Conn.
type connIOSite struct {
	pos   token.Pos
	write bool
	expr  string // receiver text, for the message
}

// verbs names the site's method and the deadline setter that guards it.
func (s connIOSite) verbs() (verb, guard string) {
	if s.write {
		return "Write", "SetWriteDeadline"
	}
	return "Read", "SetReadDeadline"
}

// deadlineFacts summarises one function's raw conn I/O and the deadline
// directions it arms.
type deadlineFacts struct {
	io     []connIOSite
	guards ctxGuards
}

// connFacts scans one body for raw conn IO and deadline guards.
func connFacts(pass *Pass, body *ast.BlockStmt, conn *types.Interface) *deadlineFacts {
	f := &deadlineFacts{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch name {
		case "Read", "Write", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		default:
			return true
		}
		if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); !ok || fn.Pkg() == nil {
			return true
		} else if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil || !types.Implements(t, conn) && !types.Implements(types.NewPointer(t), conn) {
			return true
		}
		switch name {
		case "Read":
			f.io = append(f.io, connIOSite{pos: call.Pos(), write: false, expr: types.ExprString(sel.X)})
		case "Write":
			f.io = append(f.io, connIOSite{pos: call.Pos(), write: true, expr: types.ExprString(sel.X)})
		case "SetDeadline":
			f.guards = ctxGuards{read: true, write: true}
		case "SetReadDeadline":
			f.guards.read = true
		case "SetWriteDeadline":
			f.guards.write = true
		}
		return true
	})
	return f
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

// wgPending walks one statement list in order and records, for each go
// statement in it, the WaitGroups with an Add not yet followed by a Wait
// at this nesting level. Calls inside function literals run elsewhere
// and are not counted.
func wgPending(pass *Pass, block *ast.BlockStmt, out map[*ast.GoStmt][]string) {
	pending := map[string]bool{}
	for _, stmt := range block.List {
		if gs, ok := stmt.(*ast.GoStmt); ok {
			for recv := range pending {
				out[gs] = append(out[gs], recv)
			}
			sort.Strings(out[gs])
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				switch recv, name, _ := syncMethod(pass, call, "sync.WaitGroup"); name {
				case "Add":
					pending[recv] = true
				case "Wait":
					delete(pending, recv)
				}
			}
			return true
		})
	}
}

// spawn resolves one go statement and applies the rules whose scope
// holds it. n is the spawning function (nil in a package-level
// initializer); pending lists the WaitGroups whose Add the spawn follows.
func (c *ctxflow) spawn(n *Node, pass *Pass, gs *ast.GoStmt, pending []string) {
	lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if lit != nil {
		c.placement(pass, gs, lit, pending)
	}
	if n == nil || n.Test {
		return
	}
	var fn *types.Func
	var target *Node // a named target with a module body
	if lit == nil {
		if fn = pass.calleeFunc(gs.Call); fn == nil {
			return // dynamic spawn: unresolvable
		}
		if target = c.mp.Graph.Nodes[fn.FullName()]; target != nil && (target.Decl == nil || target.Decl.Body == nil) {
			target = nil
		}
	}
	switch {
	case matchRel(n.Rel, ctxflowPkgs) && (lit != nil || target != nil):
		c.walk(n, gs, lit, target)
	case matchRel(n.Rel, exitPkgs):
		c.exit(n, gs, lit, fn, target)
	}
}

// placement applies the WaitGroup rule to one literal spawn.
func (c *ctxflow) placement(pass *Pass, gs *ast.GoStmt, lit *ast.FuncLit, pending []string) {
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.GoStmt); ok {
			return false // a nested spawn is judged on its own
		}
		if call, ok := nd.(*ast.CallExpr); ok {
			if recv, name, ok := syncMethod(pass, call, "sync.WaitGroup"); ok && name == "Add" {
				c.report(call.Pos(), nil, "%s.Add runs inside the goroutine it guards; the spawner can reach Wait first — call Add before the go statement", recv)
			}
		}
		return true
	})
	for _, recv := range pending {
		if !wgCalls(pass, lit.Body, recv, "Done") && !wgCalls(pass, lit.Body, recv, "Wait") {
			c.report(gs.Pos(), nil, "goroutine spawned after %s.Add never calls %s.Done; Wait will block forever (move an unrelated spawn above the Add, or add the Done)", recv, recv)
			return
		}
	}
}

// exit demands a bounded exit of one spawn whose body can block.
func (c *ctxflow) exit(n *Node, gs *ast.GoStmt, lit *ast.FuncLit, fn *types.Func, target *Node) {
	g, mod := c.mp.Graph, c.mp.Mod
	pass, fnBody := n.Pass, n.Decl.Body
	var (
		body   *ast.BlockStmt
		reason string
		path   []PathStep
	)
	switch {
	case lit != nil:
		body = lit.Body
		if hasBlockingConstruct(pass, body) {
			reason = "it performs channel operations"
		} else {
			// The literal's calls are attributed to the enclosing node;
			// filter its out-edges to the literal's extent.
			for _, e := range n.Out {
				if e.Pos >= body.Pos() && e.Pos < body.End() && c.blocking[e.Callee] {
					reason = "it calls " + e.Callee.DisplayName(mod) + ", which " + g.BlockingReason(e.Callee, c.blocking)
					break
				}
			}
			if reason == "" {
				return // the body cannot block: exit is bounded by its own code
			}
		}
	case target == nil:
		if blockingLeaf(fn) {
			c.report(gs.Pos(), nil, "goroutine has no bounded exit: %s blocks outright with no join (DESIGN.md §5)", fn.FullName())
		}
		return
	default:
		if !c.blocking[target] {
			return
		}
		pass, fnBody, body = target.Pass, target.Decl.Body, target.Decl.Body
		reason = target.DisplayName(mod) + " " + g.BlockingReason(target, c.blocking)
		path = []PathStep{{Func: n.DisplayName(mod), Pos: mod.Fset.Position(gs.Pos())}}
	}
	if exitJoined(pass, body) {
		return
	}
	// The site vocabulary bounds channel operations: it applies to a body
	// that parks on one, and blocking calls beside a bounded handoff are
	// the deadline check's to judge. A body that blocks only through
	// calls has no handoff to bound.
	if hasBlockingConstruct(pass, body) {
		parked := false
		chanParks(pass, fnBody, body, false, func(_ token.Pos, park string) {
			parked = parked || park != ""
		})
		if !parked {
			return // every channel operation is bounded by the site vocabulary
		}
	}
	c.reportNoExit(gs.Pos(), path, reason)
}

// exitJoined reports the exit disciplines that bound a spawned body
// whatever it blocks on: a WaitGroup join, a done signal, or a
// completion close.
func exitJoined(pass *Pass, body *ast.BlockStmt) bool {
	return wgCalls(pass, body, "", "Done") || hasDoneSignal(pass, body) || callsClose(pass, body)
}

// reportNoExit reports a spawn with no bounded exit at its go statement.
func (c *ctxflow) reportNoExit(pos token.Pos, path []PathStep, reason string) {
	c.report(pos, path,
		"goroutine has no bounded exit: %s; join it with a WaitGroup, select on a done channel, or hand off on a buffered channel and return (DESIGN.md §5)",
		reason)
}

// ctxVisit is one BFS frame of the walk: a function (optionally
// restricted to a literal body's extent) with the guards and chain
// accumulated from the spawn.
type ctxVisit struct {
	node   *Node
	region *ast.BlockStmt // nil: the whole declared body
	guards ctxGuards
	chain  []PathStep
}

// walk scans every function on one spawned path. When it flags no site
// but the path reaches a blocking leaf it does not model, the spawn is
// judged at the go statement by the bounded-exit disciplines.
func (c *ctxflow) walk(n *Node, gs *ast.GoStmt, lit *ast.FuncLit, target *Node) {
	mod := c.mp.Mod
	root := ctxVisit{
		node:   n,
		guards: ctxGuards{}.add(c.factsOf(n)),
		chain:  []PathStep{{Func: n.DisplayName(mod), Pos: mod.Fset.Position(gs.Pos())}},
	}
	pass, body := n.Pass, (*ast.BlockStmt)(nil)
	if lit != nil {
		root.region, body = lit.Body, lit.Body
	} else {
		root.node = target
		root.guards = root.guards.add(c.factsOf(target))
		pass, body = target.Pass, target.Decl.Body
	}
	joined := wgCalls(pass, body, "", "Done")

	var (
		flagged  bool
		leaf     string // the first unmodelled blocking leaf reached
		leafPath []PathStep
	)
	visited := map[*Node]bool{root.node: true}
	queue := []ctxVisit{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		flagged = c.scan(v, joined) || flagged

		lo, hi := v.node.Decl.Body.Pos(), v.node.Decl.Body.End()
		if v.region != nil {
			lo, hi = v.region.Pos(), v.region.End()
		}
		for _, e := range v.node.Out {
			if e.Pos < lo || e.Pos >= hi || c.excluded(e.Pos, v) {
				continue
			}
			callee := e.Callee
			step := PathStep{Func: v.node.DisplayName(mod), Pos: mod.Fset.Position(e.Pos)}
			if leaf == "" && unmodelledLeaf(callee) {
				leaf = "it calls " + callee.DisplayName(mod) + ", which blocks outright"
				if v.node != n {
					leaf = "it reaches " + callee.DisplayName(mod) + " via " + v.node.DisplayName(mod) + ", which blocks outright"
				}
				leafPath = append(append([]PathStep(nil), v.chain...), step)
			}
			if !callee.InModule || callee.Decl == nil || callee.Decl.Body == nil || callee.Test || visited[callee] {
				continue
			}
			visited[callee] = true
			queue = append(queue, ctxVisit{
				node:   callee,
				guards: v.guards.add(c.factsOf(callee)),
				chain:  append(append([]PathStep(nil), v.chain...), step),
			})
		}
	}
	if !flagged && leaf != "" && !exitJoined(pass, body) {
		c.reportNoExit(gs.Pos(), leafPath, leaf)
	}
}

// unmodelledLeaf reports a parking leaf the walk does not judge site by
// site: sync's Wait methods, time.Sleep, and the net calls that can park
// other than the conn Read/Write and listener Accept the walk models.
// Close, the deadline setters and the address getters never park.
func unmodelledLeaf(n *Node) bool {
	if n.InModule || n.Fn == nil || !blockingLeaf(n.Fn) {
		return false
	}
	if n.Fn.Pkg().Path() != "net" {
		return true
	}
	switch name := n.Fn.Name(); {
	case name == "Read", name == "Write", name == "Accept":
		return false
	case name == "Close", strings.HasPrefix(name, "Set"), strings.HasSuffix(name, "Addr"):
		return false
	}
	return true
}

// factsOf returns a node's conn I/O and deadline facts, computed once;
// empty for a node without a body, or when net cannot be loaded.
func (c *ctxflow) factsOf(n *Node) *deadlineFacts {
	f, ok := c.facts[n]
	if !ok {
		f = &deadlineFacts{}
		if c.conn != nil && n.Decl != nil && n.Decl.Body != nil {
			f = connFacts(n.Pass, n.Decl.Body, c.conn)
		}
		c.facts[n] = f
	}
	return f
}

// excluded reports whether pos falls inside a nested go statement's
// extent within the visited frame — those bodies are their own spawns.
// The frame's own region (a literal-spawn root) is not an exclusion.
func (c *ctxflow) excluded(pos token.Pos, v ctxVisit) bool {
	ext, ok := c.goExt[v.node]
	if !ok {
		ast.Inspect(v.node.Decl.Body, func(nd ast.Node) bool {
			if gs, ok := nd.(*ast.GoStmt); ok {
				if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					ext = append(ext, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
				} else {
					ext = append(ext, [2]token.Pos{gs.Pos(), gs.End()})
				}
			}
			return true
		})
		c.goExt[v.node] = ext
	}
	for _, r := range ext {
		if v.region != nil && r[0] == v.region.Pos() && r[1] == v.region.End() {
			continue
		}
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// scan judges every blocking site inside one visited frame and reports
// whether it flagged one.
func (c *ctxflow) scan(v ctxVisit, joined bool) (flagged bool) {
	n := v.node
	pass, mod := n.Pass, c.mp.Mod
	region := v.region
	if region == nil {
		region = n.Decl.Body
	}
	lo, hi := region.Pos(), region.End()
	inRegion := func(pos token.Pos) bool {
		return pos >= lo && pos < hi && !c.excluded(pos, v)
	}
	flag := func(pos token.Pos, format string, args ...any) {
		flagged = true
		where := " (on goroutine path " + renderSteps(v.chain) + " → " + n.DisplayName(mod) + ")"
		c.report(pos, v.chain, format+"%s", append(args, where)...)
	}

	if !joined {
		chanParks(pass, n.Decl.Body, region, true, func(pos token.Pos, park string) {
			if park != "" && inRegion(pos) {
				flag(pos, "%s", park)
			}
		})
	}
	if c.listener != nil {
		ast.Inspect(region, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if ok && inRegion(call.Pos()) && isAcceptCall(pass, call, c.listener) && !hasDoneSignal(pass, region) {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				flag(call.Pos(), "accept loop is not cancellable: %s.Accept is not gated on a done/stop signal in %s; check a done channel each iteration so Close cannot race a fresh handler (DESIGN.md §5)",
					types.ExprString(sel.X), n.DisplayName(mod))
			}
			return true
		})
	}

	// Raw conn I/O: every site in the region must have its direction
	// guarded in this function or along the spawn chain.
	for _, site := range c.factsOf(n).io {
		if !inRegion(site.pos) || v.guards.covers(site.write) {
			continue
		}
		verb, guard := site.verbs()
		flag(site.pos, "%s.%s can park a goroutine forever: no %s/SetDeadline in this function or along the spawn chain; arm a deadline before the I/O (DESIGN.md §5)",
			site.expr, verb, guard)
	}
	return flagged
}

// report emits one diagnostic per position.
func (c *ctxflow) report(pos token.Pos, path []PathStep, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.mp.Reportf(pos, path, format, args...)
}

// chanParks calls fn for every channel construct in region — select,
// send, receive, range over a channel — with the reason it can park, or
// "" when the site vocabulary bounds it. fnBody is the containing
// function's body, where buffered channels are made and semaphore
// tokens deposited; timers says whether a timer or ticker receive is
// bounded (shutdownRecvSource). Operations in a select's comm clauses
// are judged at the select.
func chanParks(pass *Pass, fnBody, region *ast.BlockStmt, timers bool, fn func(pos token.Pos, park string)) {
	var comms [][2]token.Pos
	inComm := func(pos token.Pos) bool {
		for _, r := range comms {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	// bounded reports a buffered handoff made in the containing function
	// or, for receives, a token it deposits itself (semaphore).
	bounded := func(ch ast.Expr, recv bool) bool {
		obj := fieldOrVarObject(pass, ch)
		return obj != nil && (chanMadeBuffered(pass, fnBody, obj) || recv && ctxSendsTo(pass, fnBody, obj))
	}
	ast.Inspect(region, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.SelectStmt:
			// Pre-order: the select is visited before its comm clauses.
			for _, clause := range nd.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comms = append(comms, [2]token.Pos{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
			park := ""
			if !selectHasDefault(nd) && !selectHasShutdownCase(pass, nd, timers) {
				park = "select can park forever: no default, done/stop, or timer case and no joined lifecycle; add a shutdown case (DESIGN.md §5)"
			}
			fn(nd.Pos(), park)
		case *ast.SendStmt:
			if inComm(nd.Pos()) {
				return true
			}
			park := ""
			if !bounded(nd.Chan, false) {
				park = fmt.Sprintf("blocking send %s <- … with no cancellation: not selected, not a buffered handoff, no joined lifecycle; select it against a done/stop channel (DESIGN.md §5)",
					types.ExprString(nd.Chan))
			}
			fn(nd.Pos(), park)
		case *ast.UnaryExpr:
			if nd.Op != token.ARROW || inComm(nd.Pos()) {
				return true
			}
			park := ""
			if !shutdownRecvSource(pass, nd.X, timers) && !bounded(nd.X, true) {
				park = fmt.Sprintf("blocking receive from %s with no cancellation: not a done/stop channel, not an own buffered handoff or semaphore, no joined lifecycle; select it against a done/stop channel (DESIGN.md §5)",
					types.ExprString(nd.X))
			}
			fn(nd.Pos(), park)
		case *ast.RangeStmt:
			if t := pass.TypeOf(nd.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					fn(nd.Pos(), fmt.Sprintf("range over channel %s with no joined lifecycle: the loop parks until the sender closes it; join the goroutine or select with a done/stop case (DESIGN.md §5)",
						types.ExprString(nd.X)))
				}
			}
		}
		return true
	})
}

// ctxSendsTo reports whether the body contains a send into the same
// channel object — the semaphore discipline: a receive of a token the
// function itself deposits.
func ctxSendsTo(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if s, ok := n.(*ast.SendStmt); ok && fieldOrVarObject(pass, s.Chan) == obj {
			found = true
		}
		return !found
	})
	return found
}

// hasDoneSignal reports whether the body receives from a cancellation
// source (shutdownRecvSource, timers excluded).
func hasDoneSignal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if ue, ok := nd.(*ast.UnaryExpr); ok && ue.Op == token.ARROW && shutdownRecvSource(pass, ue.X, false) {
			found = true
		}
		return !found
	})
	return found
}

// shutdownName matches channel names that conventionally signal
// termination.
func shutdownName(name string) bool {
	l := strings.ToLower(name)
	for _, kw := range []string{"done", "stop", "quit", "exit", "cancel", "shut", "kill"} {
		if strings.Contains(l, kw) {
			return true
		}
	}
	return false
}

// callsClose reports whether the body calls the close builtin.
func callsClose(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
				found = true
			}
		}
		return !found
	})
	return found
}

// chanMadeBuffered reports whether obj is assigned make(chan T, k) with
// constant k >= 1 anywhere in scope.
func chanMadeBuffered(pass *Pass, scope *ast.BlockStmt, obj types.Object) bool {
	buffered := false
	ast.Inspect(scope, func(nd ast.Node) bool {
		if buffered {
			return false
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				continue
			}
			if makeBufferedChan(pass, as.Rhs[i]) {
				buffered = true
			}
		}
		return !buffered
	})
	return buffered
}

// makeBufferedChan matches make(chan T, k) with constant k >= 1.
func makeBufferedChan(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() != "0" && !strings.HasPrefix(tv.Value.String(), "-")
}

// wgCalls reports whether the body (nested literals included) calls
// method on a sync.WaitGroup whose receiver reads recv; an empty recv
// matches any group.
func wgCalls(pass *Pass, body *ast.BlockStmt, recv, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			r, name, ok := syncMethod(pass, call, "sync.WaitGroup")
			found = ok && name == method && (recv == "" || r == recv)
		}
		return !found
	})
	return found
}

// syncMethod matches a call to a method of one of the named sync types
// (through a pointer or not), returning the receiver expression text and
// the method name. Receivers match textually: p.wg and wg, or p.mu and
// mu, are distinct, as they should be.
func syncMethod(pass *Pass, call *ast.CallExpr, typeNames ...string) (recv, name string, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	fn, fnOK := pass.ObjectOf(sel.Sel).(*types.Func)
	if !fnOK {
		return "", "", false
	}
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	for _, tn := range typeNames {
		if t.String() == tn {
			return types.ExprString(sel.X), fn.Name(), true
		}
	}
	return "", "", false
}
