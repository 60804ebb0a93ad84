package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Reachability and path queries over the call graph, shared by the
// interprocedural analyzers.

// Reach is the result of a forward breadth-first search from a root set:
// membership plus, for every reached node, the discovery edge — enough to
// reconstruct one shortest call chain back to a root.
type Reach struct {
	// parent maps a reached node to the edge that discovered it; roots
	// map to a zero Edge.
	parent map[*Node]Edge
}

// ReachableFrom runs a BFS over Out edges from the given roots. The
// roots are processed in sorted-ID order so discovery edges — and
// therefore reported paths — are deterministic.
func (g *CallGraph) ReachableFrom(roots []*Node) *Reach {
	sorted := append([]*Node(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	r := &Reach{parent: make(map[*Node]Edge)}
	var queue []*Node
	for _, n := range sorted {
		if _, ok := r.parent[n]; ok {
			continue
		}
		r.parent[n] = Edge{}
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := r.parent[e.Callee]; ok {
				continue
			}
			r.parent[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return r
}

// ReachableFromPkgs runs ReachableFrom with the non-test functions of
// the packages matching patterns as roots.
func (g *CallGraph) ReachableFromPkgs(patterns []string) *Reach {
	var roots []*Node
	for _, n := range g.FuncsIn(patterns) {
		if !n.Test {
			roots = append(roots, n)
		}
	}
	return g.ReachableFrom(roots)
}

// Contains reports whether n was reached.
func (r *Reach) Contains(n *Node) bool {
	_, ok := r.parent[n]
	return ok
}

// PathTo reconstructs the discovery chain of edges from a root to n
// (root's call first). A root returns an empty path.
func (r *Reach) PathTo(n *Node) []Edge {
	var rev []Edge
	for {
		e, ok := r.parent[n]
		if !ok || e.Caller == nil {
			break
		}
		rev = append(rev, e)
		n = e.Caller
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DisplayName renders a node for diagnostics: module functions as
// "<pkg>.<func>" with the module prefix stripped, foreign ones by their
// full name.
func (n *Node) DisplayName(mod *Module) string {
	if n.Fn == nil {
		rel := n.Rel
		if rel == "" {
			rel = "."
		}
		return rel + ".init"
	}
	name := n.Fn.FullName()
	return strings.ReplaceAll(name, mod.Name+"/", "")
}

// pathSteps converts an edge chain into Diagnostic path steps.
func pathSteps(mod *Module, path []Edge) []PathStep {
	steps := make([]PathStep, 0, len(path))
	for _, e := range path {
		steps = append(steps, PathStep{
			Func: e.Caller.DisplayName(mod),
			Pos:  mod.Fset.Position(e.Pos),
		})
	}
	return steps
}

// reachedVia renders the chain from a root to n for a message suffix:
// " (reached via a → b → n)", or "" when n is a root.
func reachedVia(mod *Module, chain []PathStep, n *Node) string {
	if len(chain) == 0 {
		return ""
	}
	return " (reached via " + renderSteps(chain) + " → " + n.DisplayName(mod) + ")"
}

// renderChain formats "a → b → c" for a diagnostic message: the callers
// along the chain, then the final callee.
func renderChain(mod *Module, path []Edge) string {
	if len(path) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, e := range path {
		sb.WriteString(e.Caller.DisplayName(mod))
		sb.WriteString(" → ")
	}
	sb.WriteString(path[len(path)-1].Callee.DisplayName(mod))
	return sb.String()
}

// Blocking classification: the lockheld check needs to know which calls
// can park the goroutine. A node blocks if its body contains a blocking
// construct — a channel send or receive, a range over a channel, a
// select without a default — or if it can reach one of the blocking
// leaves below through the call graph.

// blockingLeaf classifies functions whose bodies the graph does not see.
// Conservative by package: anything in net performs network I/O,
// time.Sleep parks outright, and sync's Wait methods (WaitGroup, Cond)
// block unboundedly.
func blockingLeaf(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "net":
		return true
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		return fn.Name() == "Wait"
	}
	return false
}

// hasBlockingConstruct reports whether a body syntactically blocks:
// channel operations or a select with no default case. Function literals
// are included — a closure declared here runs with this function's
// side effects attributed to it, matching the graph's attribution rule.
// Channel operations in the comm clauses of a select WITH a default are
// polls, not parks, and do not count; the clause bodies still do.
func hasBlockingConstruct(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok && !isBlockingStmt(pass, sel) {
			for _, clause := range sel.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range cc.Body {
					if hasBlockingConstruct(pass, &ast.BlockStmt{List: []ast.Stmt{st}}) {
						found = true
					}
				}
			}
			return false
		}
		found = isBlockingStmt(pass, n)
		return !found
	})
	return found
}

// isBlockingStmt classifies one AST node as a blocking channel
// construct.
func isBlockingStmt(pass *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		if t := pass.TypeOf(n.X); t != nil {
			_, isChan := t.Underlying().(*types.Chan)
			return isChan
		}
	case *ast.SelectStmt:
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				return false // default case: non-blocking poll
			}
		}
		return true
	}
	return false
}

// BlockingNodes computes the set of nodes that can block, to a
// fixpoint: blocking leaves, bodies with blocking constructs, and
// everything that can reach either through Out edges.
func (g *CallGraph) BlockingNodes() map[*Node]bool {
	blocking := make(map[*Node]bool)
	for _, n := range g.order {
		switch {
		case n.Fn != nil && !n.InModule && blockingLeaf(n.Fn):
			blocking[n] = true
		case n.Decl != nil && n.Decl.Body != nil && hasBlockingConstruct(n.Pass, n.Decl.Body):
			blocking[n] = true
		}
	}
	// Propagate backwards over In edges until stable.
	changed := true
	for changed {
		changed = false
		for _, n := range g.order {
			if blocking[n] {
				continue
			}
			for _, e := range n.Out {
				if blocking[e.Callee] {
					blocking[n] = true
					changed = true
					break
				}
			}
		}
	}
	return blocking
}

// BlockingReason returns a short human explanation of why a node blocks:
// the chain from n to the nearest blocking leaf or construct.
func (g *CallGraph) BlockingReason(n *Node, blocking map[*Node]bool) string {
	if n.Fn != nil && !n.InModule && blockingLeaf(n.Fn) {
		return "blocks outright"
	}
	if n.Decl != nil && n.Decl.Body != nil && hasBlockingConstruct(n.Pass, n.Decl.Body) {
		return "performs channel operations"
	}
	// BFS through blocking nodes to the nearest leaf.
	type item struct {
		n    *Node
		path []Edge
	}
	seen := map[*Node]bool{n: true}
	queue := []item{{n: n}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range it.n.Out {
			if !blocking[e.Callee] || seen[e.Callee] {
				continue
			}
			path := append(append([]Edge(nil), it.path...), e)
			if e.Callee.Fn != nil && !e.Callee.InModule && blockingLeaf(e.Callee.Fn) {
				return "reaches " + e.Callee.DisplayName(g.Mod) + " via " + renderChain(g.Mod, path)
			}
			if e.Callee.Decl != nil && e.Callee.Decl.Body != nil && hasBlockingConstruct(e.Callee.Pass, e.Callee.Decl.Body) {
				return "reaches channel operations via " + renderChain(g.Mod, path)
			}
			seen[e.Callee] = true
			queue = append(queue, item{n: e.Callee, path: path})
		}
	}
	return "can block"
}
