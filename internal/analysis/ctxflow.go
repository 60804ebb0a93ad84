package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtxflowAnalyzer is the collection-path and WaitGroup check. It applies
// three rules, each at its own scope (DESIGN.md §5):
//
//   - Conn I/O (connIOPkgs, non-test): every raw net.Conn Read or Write
//     needs a SetDeadline-family call for its direction — SetDeadline
//     guards both — in its function, or in a caller on every path into it.
//   - Hot-loop send (functions reachable from the collection tier,
//     ctxflowPkgs, non-test): a send inside a record loop (recordLoop)
//     or an accept loop, nested literals included, must be selected with
//     a default drop path or a shutdown/timer case, or go to a receiver
//     the function itself spawns and closes the channel on (the owned
//     pipeline). Buffering alone is not a bound: it only delays the park
//     by its capacity.
//   - WaitGroup placement (every spawned function literal in the module,
//     test files included): no wg.Add inside the literal, where the
//     spawner can reach Wait first, and no literal spawned after wg.Add
//     whose body neither calls wg.Done nor waits on the group. A body
//     that calls Wait is the group's waiter (the fan-in closer), not a
//     worker it guards.
//
// One position gets one finding, from the first rule in that order to
// flag it. Whether a spawned goroutine exits is not judged here: the
// tests of the collection tier, the shard runtime, the study engine and
// the generator end in a goroutine-leak check (internal/leakcheck).
var CtxflowAnalyzer = &Analyzer{
	Name:      "ctxflow",
	Doc:       "collection path and WaitGroup placement: deadline-guarded conn I/O, bounded hot-loop sends, wg.Add before the spawn and Done in it",
	RunModule: runCtxflow,
}

// ctxflowPkgs is the collection tier, whose reach the hot-loop send rule
// covers: the live proxy and replay packages and their commands.
var ctxflowPkgs = []string{
	"internal/mnet/netproxy",
	"internal/mnet/replay",
	"cmd/wearproxy",
	"cmd/wearreplay",
}

// connIOPkgs scopes the conn-I/O rule: the collection path is the only
// code that reads and writes real sockets, and DESIGN.md §6 promises none
// of it can wedge on a dead peer.
var connIOPkgs = []string{"internal/mnet/..."}

// ctxGuards is the set of deadline directions armed in one function.
type ctxGuards struct{ read, write bool }

// covers reports whether a deadline is armed for the I/O direction.
func (g ctxGuards) covers(write bool) bool {
	if write {
		return g.write
	}
	return g.read
}

// ctxflow is one run's state: the interface types, the per-node deadline
// facts, filled on demand, and the positions already reported.
type ctxflow struct {
	mp       *ModulePass
	conn     *types.Interface
	listener *types.Interface
	facts    map[*Node]*deadlineFacts
	reported map[token.Pos]bool
}

func runCtxflow(mp *ModulePass) {
	c := &ctxflow{
		mp:       mp,
		conn:     mp.NetConn(),
		listener: mp.NetListener(),
		facts:    map[*Node]*deadlineFacts{},
		reported: map[token.Pos]bool{},
	}
	c.connIO()
	c.hotSends()
	for _, u := range mp.Mod.Units {
		pass, _ := mp.Mod.pass(u)
		for _, f := range u.Files {
			pending := map[*ast.GoStmt][]string{}
			ast.Inspect(f, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.BlockStmt:
					wgPending(pass, nd, pending)
				case *ast.GoStmt:
					if lit, ok := ast.Unparen(nd.Call.Fun).(*ast.FuncLit); ok {
						c.placement(pass, nd, lit, pending[nd])
					}
				}
				return true
			})
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
		if selectHasDefault(sel) || selectHasShutdownCase(pass, sel) {
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
// receives from a done source (shutdownRecvSource).
func selectHasShutdownCase(pass *Pass, sel *ast.SelectStmt) bool {
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
		if shutdownRecvSource(pass, src) {
			return true
		}
	}
	return false
}

// shutdownRecvSource classifies a receive source as a cancellation
// signal — a ctx.Done()-style call or a shutdown-named channel — or a
// deadline: the C field of a time.Timer/time.Ticker.
func shutdownRecvSource(pass *Pass, src ast.Expr) bool {
	if call, ok := ast.Unparen(src).(*ast.CallExpr); ok {
		id := refIdent(call.Fun)
		return id != nil && id.Name == "Done"
	}
	if sel, ok := ast.Unparen(src).(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
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

// report emits one diagnostic per position.
func (c *ctxflow) report(pos token.Pos, path []PathStep, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.mp.Reportf(pos, path, format, args...)
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

// recordLoop reports whether nd is a record-iteration loop: a range over
// records (slice, array or channel of an internal/mnet Record type), or a
// for loop whose body directly defines a Record-typed variable (the
// `for { rec, err := dec.Decode() }` decoder idiom).
func recordLoop(pass *Pass, mod *Module, nd ast.Node) (ast.Stmt, *ast.BlockStmt) {
	switch nd := nd.(type) {
	case *ast.RangeStmt:
		t := pass.TypeOf(nd.X)
		if t == nil {
			return nil, nil
		}
		var elem types.Type
		switch u := t.Underlying().(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Chan:
			elem = u.Elem()
		}
		if elem != nil && isRecordType(mod, elem) {
			return nd, nd.Body
		}
	case *ast.ForStmt:
		if definesRecordVar(pass, mod, nd.Body) {
			return nd, nd.Body
		}
	}
	return nil, nil
}

// definesRecordVar reports whether the loop body itself (not a nested
// loop or literal) defines a Record-typed variable.
func definesRecordVar(pass *Pass, mod *Module, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false // nested scopes classify on their own
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj, isVar := pass.Info.Defs[id].(*types.Var); isVar && isRecordType(mod, obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRecordType matches the module's log record types: a named type
// called Record declared under internal/mnet.
func isRecordType(mod *Module, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == "Record" && obj.Pkg() != nil &&
		strings.HasPrefix(obj.Pkg().Path(), mod.Name+"/internal/mnet")
}
