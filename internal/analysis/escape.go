package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function escape/alias layer membound's Sink rule
// runs on: for every module function, a summary of which parameters can
// escape the call — reach state that outlives the invocation — and
// through which spelling. It is computed on top of the classification
// layer (parameter/local/captured, defuse.go) and cached per flavor on
// the Module, like the pass and call-graph caches, so repeat Runs and
// multiple checks share one computation.
//
// Approximation rules (DESIGN.md §5):
//
//   - Value flow is type-filtered: a flavor supplies a carries predicate
//     (e.g. "transitively contains an internal/mnet Record"), and only
//     expressions of carrying type propagate taint. Folding a record
//     into a scalar (s.total += r.Bytes) is therefore never an escape —
//     the streaming idiom the checks exist to protect stays silent.
//   - Aliases propagate through plain assignments, reslices and
//     container fills: a local that receives a carried value (x := r,
//     out = append(out, r), m[k] = r, s.f = r for a value-struct local)
//     holds the value, and the local's own escape escapes the value.
//   - A store through a reference-typed base (pointer, map, slice,
//     channel) escapes unless the base is a local whose every assignment
//     was a fresh allocation (make, new, composite literal) in this
//     body: a pointer obtained from a call may reach shared state, so it
//     is never a safe carrier.
//   - Escapes propagate through call sites to a fixpoint: passing a
//     carried value to a callee whose parameter escapes escapes the
//     caller's parameter too, with the call chain recorded for
//     diagnostics. Receivers, interface dispatch and call results are
//     not propagated — the usual dataflow-layer under-approximation,
//     biased so a "nothing escapes here" contract check never claims an
//     escape it cannot spell out.
//   - Functions with more than 64 parameters are summarised as
//     escape-free (the mask is a uint64; no module function comes close).

// EscapeKind is a bitmask of escape spellings.
type EscapeKind uint16

const (
	// EscField marks a store into outliving state: a captured or
	// package-level variable, a field behind a pointer, a slice element
	// of shared backing, or through an unresolvable base.
	EscField EscapeKind = 1 << iota
	// EscMap marks an insert into a map that outlives the call.
	EscMap
	// EscAppend marks an append into outliving storage.
	EscAppend
	// EscChan marks a send on a channel.
	EscChan
	// EscGoroutine marks capture by a go statement (argument or closure
	// reference).
	EscGoroutine
	// EscReturn marks flow into a return value.
	EscReturn
)

// escHeapKinds are the kinds that hand the value to state outliving the
// call even when the caller discards the function's result — the kinds
// that propagate through call sites.
const escHeapKinds = EscField | EscMap | EscAppend | EscChan | EscGoroutine

// escKindOrder fixes the iteration order over kinds for deterministic
// propagation and reporting.
var escKindOrder = []EscapeKind{EscField, EscMap, EscAppend, EscChan, EscGoroutine, EscReturn}

// Describe renders one kind for a diagnostic message.
func (k EscapeKind) Describe() string {
	switch k {
	case EscField:
		return "stored into state that outlives the call"
	case EscMap:
		return "inserted into an outliving map"
	case EscAppend:
		return "appended into outliving storage"
	case EscChan:
		return "sent on a channel"
	case EscGoroutine:
		return "captured by a goroutine"
	case EscReturn:
		return "returned"
	}
	return "escaping"
}

// ParamEscape summarises one parameter's escapes.
type ParamEscape struct {
	// Kinds is the union of escape spellings observed for this parameter.
	Kinds EscapeKind
	// Site is the terminal escape site per kind — the store, send or
	// capture itself, possibly inside a callee.
	Site map[EscapeKind]token.Pos
	// Terminal names the function containing the terminal site per kind.
	Terminal map[EscapeKind]string
	// Steps is the call chain from this function down to the terminal
	// site per kind; empty for escapes in this function's own body.
	Steps map[EscapeKind][]PathStep
}

func newParamEscape() *ParamEscape {
	return &ParamEscape{
		Site:     map[EscapeKind]token.Pos{},
		Terminal: map[EscapeKind]string{},
		Steps:    map[EscapeKind][]PathStep{},
	}
}

// FuncEscape is one function's escape summary, indexed by declared
// parameter position (receiver excluded, matching the classification
// layer).
type FuncEscape struct {
	node   *Node
	Params []*ParamEscape
	// calls are the carried-value call sites feeding the module fixpoint.
	calls []escCall
}

// escCall records one call argument that carries parameter values.
type escCall struct {
	callee   string // callee FullName
	calleeIx int    // callee parameter index (variadic collapsed)
	mask     uint64 // caller parameter bits flowing into the argument
	pos      token.Pos
}

// EscapeSet holds the module-wide, fixpoint-propagated summaries of one
// flavor.
type EscapeSet struct {
	byNode map[*Node]*FuncEscape
	byName map[string]*FuncEscape
}

// Of returns the summary for a graph node, or nil for bodiless nodes.
func (es *EscapeSet) Of(n *Node) *FuncEscape { return es.byNode[n] }

// EscapeSummaries computes (once per Module per flavor, like the pass
// cache) the parameter-escape summaries of every module function, with
// value flow restricted to types the carries predicate accepts.
func (m *Module) EscapeSummaries(flavor string, carries func(types.Type) bool) *EscapeSet {
	if es, ok := m.escape[flavor]; ok {
		return es
	}
	g := m.CallGraph()
	es := &EscapeSet{byNode: map[*Node]*FuncEscape{}, byName: map[string]*FuncEscape{}}
	g.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Pass == nil || n.Fn == nil {
			return
		}
		fe := escapeBase(m, n, carries)
		es.byNode[n] = fe
		es.byName[n.Fn.FullName()] = fe
	})
	// Propagate heap escapes through call sites to a fixpoint; the walk
	// order is deterministic, so first-written sites and chains are too.
	for changed := true; changed; {
		changed = false
		g.Walk(func(n *Node) {
			fe := es.byNode[n]
			if fe == nil {
				return
			}
			for _, c := range fe.calls {
				cs := es.byName[c.callee]
				if cs == nil || c.calleeIx < 0 || c.calleeIx >= len(cs.Params) {
					continue
				}
				src := cs.Params[c.calleeIx]
				kinds := src.Kinds & escHeapKinds
				if kinds == 0 {
					continue
				}
				for i, pe := range fe.Params {
					if c.mask&(1<<uint(i)) == 0 {
						continue
					}
					for _, k := range escKindOrder {
						if kinds&k == 0 || pe.Kinds&k != 0 {
							continue
						}
						pe.Kinds |= k
						pe.Site[k] = src.Site[k]
						pe.Terminal[k] = src.Terminal[k]
						step := PathStep{Func: n.DisplayName(m), Pos: m.Fset.Position(c.pos)}
						pe.Steps[k] = append([]PathStep{step}, src.Steps[k]...)
						changed = true
					}
				}
			}
		})
	}
	if m.escape == nil {
		m.escape = map[string]*EscapeSet{}
	}
	m.escape[flavor] = es
	return es
}

// declParams returns a declaration's parameter objects in declared
// order.
func declParams(p *Pass, ft *ast.FuncType) []types.Object {
	if ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if o := p.Info.Defs[name]; o != nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// escapeBase computes one function's intraprocedural summary: alias
// discovery to a local fixpoint, then one recording pass.
func escapeBase(m *Module, n *Node, carries func(types.Type) bool) *FuncEscape {
	p := n.Pass
	params := declParams(p, n.Decl.Type)
	fe := &FuncEscape{node: n, Params: make([]*ParamEscape, len(params))}
	for i := range fe.Params {
		fe.Params[i] = newParamEscape()
	}
	if len(params) == 0 || len(params) > 64 {
		return fe
	}
	w := &escWalk{
		mod:     m,
		p:       p,
		du:      m.FuncDefUse(p, n.Decl.Type, n.Decl.Body),
		carries: carries,
		fe:      fe,
		holds:   map[types.Object]uint64{},
		freshly: map[types.Object]bool{},
		unfresh: map[types.Object]bool{},
	}
	tracked := false
	for i, o := range params {
		if carries(o.Type()) {
			w.holds[o] = 1 << uint(i)
			tracked = true
		}
	}
	if !tracked {
		return fe
	}
	for iter := 0; iter < 16; iter++ {
		w.changed = false
		w.walk(n.Decl.Body)
		if !w.changed {
			break
		}
	}
	w.record = true
	w.walk(n.Decl.Body)
	return fe
}

// escWalk carries one function's walk state.
type escWalk struct {
	mod     *Module
	p       *Pass
	du      *DefUse
	carries func(types.Type) bool
	fe      *FuncEscape

	// holds maps an object to the parameter bits whose values it may
	// hold (aliases and filled containers alike).
	holds map[types.Object]uint64
	// freshly/unfresh track local provenance: a local is a safe carrier
	// only if every assignment to it was a fresh allocation.
	freshly map[types.Object]bool
	unfresh map[types.Object]bool

	changed bool
	record  bool
}

func (w *escWalk) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			w.assign(nd)
		case *ast.SendStmt:
			w.escape(w.maskOf(nd.Value), EscChan, nd.Arrow)
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				w.escape(w.maskOf(res), EscReturn, res.Pos())
			}
		case *ast.GoStmt:
			w.goStmt(nd)
			return false
		case *ast.CallExpr:
			w.call(nd)
		}
		return true
	})
}

// maskOf returns the parameter bits an expression may carry: zero when
// its type cannot hold a tracked value, else the union over mentioned
// holders. Nested function literals are skipped — closure capture is
// handled at go statements, the only place it outlives the call without
// a store the walk already sees.
func (w *escWalk) maskOf(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	if t := w.p.TypeOf(e); t != nil && !w.carries(t) {
		return 0
	}
	return w.maskIdents(e)
}

func (w *escWalk) maskIdents(nd ast.Node) uint64 {
	var m uint64
	ast.Inspect(nd, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if h := w.holds[w.p.ObjectOf(id)]; h != 0 {
				m |= h
			}
		}
		return true
	})
	return m
}

func (w *escWalk) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value call results: flow untracked (documented)
	}
	for i := range as.Lhs {
		lhs, rhs := as.Lhs[i], as.Rhs[i]
		w.trackFresh(lhs, rhs)
		m := w.maskOf(rhs)
		if m == 0 {
			continue
		}
		kind := EscField
		if isAppendCall(w.p, rhs) {
			kind = EscAppend
		}
		w.store(lhs, m, kind, as.Pos())
	}
}

// trackFresh updates local provenance for an ident target.
func (w *escWalk) trackFresh(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.p.ObjectOf(id)
	if obj == nil || w.du.ClassOf(obj) != ClassLocal {
		return
	}
	if w.isFreshExpr(rhs) {
		w.freshly[obj] = true
	} else {
		w.unfresh[obj] = true
	}
}

// isFreshExpr reports whether e denotes a fresh allocation: a composite
// literal (addressed or not), make, new, or a reslice/append of a fresh
// local.
func (w *escWalk) isFreshExpr(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := t.X.(*ast.CompositeLit)
		return t.Op == token.AND && lit
	case *ast.SliceExpr:
		ro := rootObject(w.p, t.X)
		return ro != nil && w.isFreshLocal(ro)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.p.ObjectOf(id).(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make", "new":
					return true
				case "append":
					if len(t.Args) > 0 {
						ro := rootObject(w.p, t.Args[0])
						return ro != nil && w.isFreshLocal(ro)
					}
				}
			}
		}
	}
	return false
}

func (w *escWalk) isFreshLocal(obj types.Object) bool {
	return w.freshly[obj] && !w.unfresh[obj]
}

// store routes one carried-value store by the shape of its target.
func (w *escWalk) store(lhs ast.Expr, m uint64, kind EscapeKind, pos token.Pos) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := w.p.ObjectOf(t)
		if obj == nil {
			return
		}
		switch w.du.ClassOf(obj) {
		case ClassLocal, ClassParam:
			w.hold(obj, m)
		default:
			w.escape(m, kind, pos) // package-level or closure-captured variable
		}
	case *ast.IndexExpr:
		k := kind
		if tt := w.p.TypeOf(t.X); tt != nil {
			if _, isMap := tt.Underlying().(*types.Map); isMap {
				k = EscMap
			}
		}
		w.storeThrough(t.X, m, k, pos)
	case *ast.SelectorExpr:
		w.storeThrough(lhs, m, kind, pos)
	default:
		w.escape(m, kind, pos) // *p = v and anything unresolvable
	}
}

// storeThrough judges a store into a container reached through base: a
// safe carrier holds the value, everything else escapes it. Safe means
// the root is a value-typed local or parameter (the callee's own copy),
// or a reference-typed local whose every assignment was a fresh
// allocation in this body.
func (w *escWalk) storeThrough(base ast.Expr, m uint64, kind EscapeKind, pos token.Pos) {
	root := rootObject(w.p, base)
	if root != nil {
		cls := w.du.ClassOf(root)
		if !refTyped(root.Type()) && (cls == ClassLocal || cls == ClassParam) {
			w.hold(root, m)
			return
		}
		if cls == ClassLocal && w.isFreshLocal(root) {
			w.hold(root, m)
			return
		}
	}
	w.escape(m, kind, pos)
}

// refTyped reports whether a type's storage may be shared with state the
// function does not own: pointers, maps, slices, channels, interfaces
// and functions.
func refTyped(t types.Type) bool {
	if t == nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
}

func (w *escWalk) goStmt(g *ast.GoStmt) {
	var m uint64
	for _, arg := range g.Call.Args {
		m |= w.maskOf(arg)
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		m |= w.maskIdents(lit.Body)
	}
	w.escape(m, EscGoroutine, g.Pos())
}

// call records carried-value arguments for the module fixpoint.
func (w *escWalk) call(call *ast.CallExpr) {
	if !w.record {
		return
	}
	fn := w.p.calleeFunc(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		m := w.maskOf(arg)
		if m == 0 {
			continue
		}
		ix := i
		if ix >= np {
			if !sig.Variadic() {
				continue
			}
			ix = np - 1
		}
		w.fe.calls = append(w.fe.calls, escCall{
			callee: fn.FullName(), calleeIx: ix, mask: m, pos: call.Pos(),
		})
	}
}

func (w *escWalk) hold(obj types.Object, m uint64) {
	if obj == nil {
		return
	}
	if w.holds[obj]&m != m {
		w.holds[obj] |= m
		w.changed = true
	}
}

func (w *escWalk) escape(m uint64, kind EscapeKind, pos token.Pos) {
	if m == 0 || !w.record {
		return
	}
	for i, pe := range w.fe.Params {
		if m&(1<<uint(i)) == 0 || pe.Kinds&kind != 0 {
			continue
		}
		pe.Kinds |= kind
		pe.Site[kind] = pos
		pe.Terminal[kind] = w.fe.node.DisplayName(w.mod)
	}
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}
