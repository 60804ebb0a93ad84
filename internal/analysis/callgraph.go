package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural checks
// (detreach, deadline, lockheld) run on. The graph is deliberately an
// over-approximation — it may contain edges no execution follows, never
// the reverse — because every client is a "nothing bad is reachable"
// check, where missing edges mean missed bugs and extra edges mean at
// worst a conservative diagnostic.
//
// Resolution rules, in order:
//
//   - Static calls (f(), pkg.F()) and concrete method calls (v.M() with a
//     non-interface receiver) resolve to their *types.Func.
//   - Interface method calls (v.M() with an interface receiver) add an
//     edge to the interface method itself — so stdlib leaves like
//     (net.Conn).Read stay visible — plus edges to every module method
//     named M whose receiver is concrete and whose signature matches.
//     Matching is by name and universe-robust signature string, not
//     types.Implements, because each lint unit type-checks module-internal
//     types in its own universe (see sigKey).
//   - A reference to a function or method outside call position (a method
//     value, a function passed as an argument, an assignment like
//     cfg.Now = time.Now) adds a "value" edge from the enclosing function
//     and registers the target by signature.
//   - A call through a func-typed expression (a field, parameter or
//     variable: cfg.Dial(...)) adds edges to every registered value
//     reference with an identical signature.
//
// Function literals are attributed to their enclosing declaration: a call
// inside a closure spawned by F is an edge from F. Package-level variable
// initializers are attributed to a synthetic per-unit init node.

// Node is one function in the call graph. Module functions carry their
// declaration and Pass for body-level analysis; functions from imported
// packages (stdlib included) are leaves.
type Node struct {
	// ID is the canonical identity: types.Func.FullName for real
	// functions ("time.Now", "(*wearwild/internal/mnet/netproxy.Proxy).handle"),
	// "init:<rel>:<pkg>" for synthetic initializer nodes.
	ID string
	// Fn is a representative types.Func (nil for init nodes). When the
	// same function is seen both in its defining unit and through the
	// importer's declaration-only shadow, the defining unit wins.
	Fn *types.Func
	// InModule reports whether the function is declared in this module.
	InModule bool
	// Rel is the module-relative package directory for module functions.
	Rel string
	// Test reports whether the declaration lives in a _test.go file.
	Test bool
	// Decl and Pass are set for module functions with bodies.
	Decl *ast.FuncDecl
	Pass *Pass
	// Out and In are the edges, in deterministic build order.
	Out []Edge
	In  []Edge
}

// Edge is one call (or callable reference) from Caller to Callee at Pos.
type Edge struct {
	Caller, Callee *Node
	Pos            token.Pos
	// Dynamic marks edges added by over-approximation: interface
	// dispatch, func-value calls, and value references.
	Dynamic bool
	// Ref marks a value reference: the site names Callee without
	// calling it.
	Ref bool
}

// CallGraph is the module-wide graph plus the lookup tables the
// analyzers use.
type CallGraph struct {
	Mod *Module
	// Nodes holds every node keyed by ID.
	Nodes map[string]*Node
	// order lists nodes in deterministic creation order.
	order []*Node

	// addressTaken maps a signature key to the functions whose value was
	// taken somewhere in the module with that signature.
	addressTaken map[string][]*Node
	// methodsByName maps a method name to every module method with a
	// concrete receiver, for interface-dispatch resolution.
	methodsByName map[string][]*Node

	// deferred dynamic resolution work, replayed once all units are
	// walked so addressTaken and methodsByName are complete.
	ifaceCalls []dynSite
	funcCalls  []dynSite
}

// dynSite is a dynamic call awaiting resolution.
type dynSite struct {
	caller *Node
	pos    token.Pos
	name   string // interface method name; "" for func-value calls
	sig    string // signature key to match
}

// CallGraph builds (once) and returns the module's call graph. Every
// unit must type-check through the shared pass cache first, so the graph
// sees the same objects the per-unit analyzers do.
func (m *Module) CallGraph() *CallGraph {
	if m.graph != nil {
		return m.graph
	}
	g := &CallGraph{
		Mod:           m,
		Nodes:         make(map[string]*Node),
		addressTaken:  make(map[string][]*Node),
		methodsByName: make(map[string][]*Node),
	}
	for _, u := range m.Units {
		pass, _ := m.pass(u)
		g.addUnit(u, pass)
	}
	g.resolveDynamic()
	g.buildIn()
	m.graph = g
	return g
}

// Walk visits every node in deterministic order.
func (g *CallGraph) Walk(fn func(*Node)) {
	for _, n := range g.order {
		fn(n)
	}
}

// node interns a types.Func.
func (g *CallGraph) node(fn *types.Func) *Node {
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	id := fn.FullName()
	if n := g.Nodes[id]; n != nil {
		return n
	}
	n := &Node{ID: id, Fn: fn}
	if pkg := fn.Pkg(); pkg != nil {
		n.InModule = pkg.Path() == g.Mod.Name || strings.HasPrefix(pkg.Path(), g.Mod.Name+"/")
	}
	g.Nodes[id] = n
	g.order = append(g.order, n)
	return n
}

// initNode interns the synthetic initializer node for a unit.
func (g *CallGraph) initNode(u *Unit) *Node {
	id := "init:" + u.Rel + ":" + u.Name
	if n := g.Nodes[id]; n != nil {
		return n
	}
	n := &Node{ID: id, InModule: true, Rel: u.Rel}
	g.Nodes[id] = n
	g.order = append(g.order, n)
	return n
}

// addUnit walks one unit's declarations into the graph.
func (g *CallGraph) addUnit(u *Unit, pass *Pass) {
	for _, f := range u.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := g.node(fn)
				// The defining unit owns the node's metadata even when an
				// importer shadow created it first.
				n.Fn, n.InModule, n.Rel, n.Test, n.Decl, n.Pass = fn, true, u.Rel, isTest, decl, pass
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if _, iface := sig.Recv().Type().Underlying().(*types.Interface); !iface {
						g.methodsByName[fn.Name()] = append(g.methodsByName[fn.Name()], n)
					}
				}
				if decl.Body != nil {
					g.walkBody(n, pass, decl.Body)
				}
			case *ast.GenDecl:
				if decl.Tok != token.VAR {
					continue
				}
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					n := g.initNode(u)
					n.Test = n.Test || isTest
					for _, v := range vs.Values {
						g.walkExpr(n, pass, v)
					}
				}
			}
		}
	}
}

// walkBody records edges for every call and function reference in a
// function body (closures included).
func (g *CallGraph) walkBody(n *Node, pass *Pass, body *ast.BlockStmt) {
	g.walkExpr(n, pass, body)
}

func (g *CallGraph) walkExpr(n *Node, pass *Pass, root ast.Node) {
	// calleePos marks identifiers appearing as the operator of a call so
	// the reference walk below can tell calls from value references.
	calleePos := map[*ast.Ident]bool{}
	ast.Inspect(root, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call); id != nil {
			calleePos[id] = true
		}
		g.addCall(n, pass, call)
		return true
	})
	ast.Inspect(root, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || calleePos[id] {
			return true
		}
		fn, ok := pass.ObjectOf(id).(*types.Func)
		if !ok {
			return true
		}
		// A value reference: method value, func argument, assignment.
		// Interface methods referenced as values dispatch dynamically; the
		// interface-method edge keeps the leaf visible and the registered
		// signature lets func-value call sites find the implementations.
		callee := g.node(fn)
		n.Out = append(n.Out, Edge{Caller: n, Callee: callee, Pos: id.Pos(), Dynamic: true, Ref: true})
		key := sigKey(fn.Type())
		if key != "" {
			g.addressTaken[key] = append(g.addressTaken[key], callee)
		}
		return true
	})
}

// calleeIdent returns the identifier a call expression invokes through,
// if any.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// addCall records one call expression.
func (g *CallGraph) addCall(n *Node, pass *Pass, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Conversions (T(x)) and builtin calls are not calls in the graph.
	if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	id := calleeIdent(call)
	if id != nil {
		switch obj := pass.ObjectOf(id).(type) {
		case *types.Builtin:
			return
		case *types.Func:
			callee := g.node(obj)
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
					// Interface dispatch: keep the interface-method edge and
					// queue name/signature matching against module methods.
					n.Out = append(n.Out, Edge{Caller: n, Callee: callee, Pos: call.Pos(), Dynamic: true})
					g.ifaceCalls = append(g.ifaceCalls, dynSite{caller: n, pos: call.Pos(), name: obj.Name(), sig: sigKey(obj.Type())})
					return
				}
			}
			n.Out = append(n.Out, Edge{Caller: n, Callee: callee, Pos: call.Pos()})
			return
		}
	}
	// A call through a func-typed expression (variable, field, parameter,
	// result of another call).
	t := pass.TypeOf(fun)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return
	}
	g.funcCalls = append(g.funcCalls, dynSite{caller: n, pos: call.Pos(), sig: sigKey(t)})
}

// resolveDynamic replays interface dispatch and func-value call sites now
// that methodsByName and addressTaken are complete.
func (g *CallGraph) resolveDynamic() {
	for _, site := range g.ifaceCalls {
		for _, m := range g.methodsByName[site.name] {
			if sigKey(m.Fn.Type()) == site.sig {
				site.caller.Out = append(site.caller.Out, Edge{Caller: site.caller, Callee: m, Pos: site.pos, Dynamic: true})
			}
		}
	}
	for _, site := range g.funcCalls {
		seen := map[*Node]bool{}
		for _, target := range g.addressTaken[site.sig] {
			if seen[target] {
				continue
			}
			seen[target] = true
			site.caller.Out = append(site.caller.Out, Edge{Caller: site.caller, Callee: target, Pos: site.pos, Dynamic: true})
		}
	}
	g.ifaceCalls, g.funcCalls = nil, nil
}

// buildIn mirrors Out edges into callee In lists, deterministically.
func (g *CallGraph) buildIn() {
	for _, n := range g.order {
		for _, e := range n.Out {
			e.Callee.In = append(e.Callee.In, e)
		}
	}
}

// sigKey renders a function type's parameters and results with full
// package paths, ignoring any receiver. Two type-check universes (a
// unit's own full check versus the importer's declaration-only shadow)
// produce distinct types.Type objects for the same module type, so
// identity-based comparison fails across packages; the printed form with
// path qualifiers is stable across universes.
func sigKey(t types.Type) string {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	var sb strings.Builder
	sb.WriteString(types.TypeString(sig.Params(), qual))
	sb.WriteString("→")
	sb.WriteString(types.TypeString(sig.Results(), qual))
	if sig.Variadic() {
		sb.WriteString("...")
	}
	return sb.String()
}

// FuncsIn returns the module function nodes declared in packages
// matching the pattern list (matchRel semantics), sorted by ID.
func (g *CallGraph) FuncsIn(patterns []string) []*Node {
	var out []*Node
	for _, n := range g.order {
		if n.InModule && n.Decl != nil && matchRel(n.Rel, patterns) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
