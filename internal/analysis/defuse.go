package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function dataflow layer the shard-and-merge purity
// checks (shardpure, floatfold) run on: def-use chains over one function
// body, classification of every referenced variable as parameter, local
// or captured, and detection of write and accumulation sites. Like the
// call graph it feeds, the layer over-approximates — a write through an
// unresolvable base expression is dropped rather than guessed, and flow
// through pointers or call arguments is not tracked — because every
// client is a "nothing impure happens here" check where the analysis
// must never claim a write it cannot attribute.

// VarClass classifies a variable relative to the analyzed function.
type VarClass uint8

const (
	// ClassLocal marks a variable declared inside the analyzed body
	// (loop variables and nested-literal locals included).
	ClassLocal VarClass = iota
	// ClassParam marks a parameter or named result of the analyzed
	// function itself: per-invocation state, never shared.
	ClassParam
	// ClassCaptured marks everything declared outside: closure captures,
	// method receivers, and package-level variables — state that outlives
	// one invocation and may be shared across goroutines.
	ClassCaptured
)

// WriteKind is the syntactic shape of a write's target.
type WriteKind uint8

const (
	// WriteAssign is a plain store: v = e, v.f = e, *p = e, v++, v += e.
	WriteAssign WriteKind = iota
	// WriteIndex stores through a slice or array index: v[i] = e.
	WriteIndex
	// WriteMapIndex stores through a map key: m[k] = e.
	WriteMapIndex
	// WriteAppend grows a slice in place: v = append(v, ...).
	WriteAppend
)

// VarWrite is one write site inside the analyzed body.
type VarWrite struct {
	Pos  token.Pos
	Kind WriteKind
	// Obj is the root object the write reaches through (x in x.f[i] = e);
	// nil when the base expression does not resolve to a variable, in
	// which case clients must treat the write as unclassifiable and skip
	// it (documented over-approximation).
	Obj types.Object
	// Target is the full left-hand expression.
	Target ast.Expr
	// Index is the index expression for WriteIndex / WriteMapIndex.
	Index ast.Expr
	// Accum marks read-modify-write stores: v += e, v = v + e, v++.
	Accum bool
	// FloatAccum marks an Accum whose target has floating-point type —
	// a non-associative fold step.
	FloatAccum bool
	// InMapRange marks a write lexically inside a `for … range` over a
	// map, where iteration order is randomised per run.
	InMapRange bool
	// RangeSrc is the ranged-over expression for InMapRange writes, and
	// RangeStmt the enclosing range statement — clients compare the
	// target's declaration position against its extent to tell a
	// cross-iteration fold from a per-iteration local.
	RangeSrc  ast.Expr
	RangeStmt *ast.RangeStmt
	// UnderMutex marks a write dominated (textually, in statement order —
	// the same tripwire discipline as lockheld) by a held mutex Lock.
	UnderMutex bool
}

// DefUse is the def-use summary of one function body.
type DefUse struct {
	pass *Pass
	body *ast.BlockStmt
	// params holds the analyzed function's own parameter and named-result
	// objects.
	params map[types.Object]bool
	// Writes lists every attributable write site, in source order.
	Writes []VarWrite
	// uses maps each referenced variable to its use positions, in source
	// order — the "use" half of the def-use chains.
	uses map[types.Object][]token.Pos
}

// FuncDefUse builds (or returns the cached) def-use summary for a
// function given its type and body. For function literals pass lit.Type
// and lit.Body; for declarations decl.Type and decl.Body — the receiver
// is deliberately not a parameter, so writes through it classify as
// captured (a method value used as a shard callback shares one receiver
// across every worker).
func (m *Module) FuncDefUse(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) *DefUse {
	if du, ok := m.defuse[body]; ok {
		return du
	}
	du := newDefUse(pass, ft, body)
	if m.defuse == nil {
		m.defuse = make(map[*ast.BlockStmt]*DefUse)
	}
	m.defuse[body] = du
	return du
}

func newDefUse(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) *DefUse {
	du := &DefUse{
		pass:   pass,
		body:   body,
		params: make(map[types.Object]bool),
		uses:   make(map[types.Object][]token.Pos),
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					du.params[obj] = true
				}
			}
		}
	}
	addFields(ft.Params)
	addFields(ft.Results)

	w := &defUseWalk{du: du}
	w.walk(body)
	return du
}

// ClassOf classifies a referenced object relative to the analyzed
// function: its own parameters, anything declared inside the body, or
// captured outer state.
func (du *DefUse) ClassOf(obj types.Object) VarClass {
	if obj == nil {
		return ClassCaptured
	}
	if du.params[obj] {
		return ClassParam
	}
	if obj.Pos() >= du.body.Pos() && obj.Pos() < du.body.End() {
		return ClassLocal
	}
	return ClassCaptured
}

// Uses returns the use positions of a variable inside the body, in
// source order.
func (du *DefUse) Uses(obj types.Object) []token.Pos { return du.uses[obj] }

// CapturedIn reports whether the expression references any captured
// variable — used to decide whether an index is derived purely from the
// callback's own state (the fixed-slot pattern) or reaches shared state.
func (du *DefUse) CapturedIn(e ast.Expr) bool {
	captured := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := du.pass.ObjectOf(id)
		if _, isVar := obj.(*types.Var); isVar && du.ClassOf(obj) == ClassCaptured {
			captured = true
		}
		return !captured
	})
	return captured
}

// OwnIndexed reports whether the expression mentions at least one
// variable belonging to the analyzed function (parameter or local): the
// positive half of the fixed-slot test, so a constant index into a
// shared slice does not pass as a per-invocation slot.
func (du *DefUse) OwnIndexed(e ast.Expr) bool {
	own := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || own {
			return !own
		}
		obj := du.pass.ObjectOf(id)
		if _, isVar := obj.(*types.Var); isVar && du.ClassOf(obj) != ClassCaptured {
			own = true
		}
		return !own
	})
	return own
}

// defUseWalk carries the walk state: the lexical map-range nesting and
// the textually held mutexes (same receiver-text discipline as
// lockheld).
type defUseWalk struct {
	du        *DefUse
	mapRanges []*ast.RangeStmt
	held      int
}

func (w *defUseWalk) walk(n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			isMap := false
			if t := w.du.pass.TypeOf(nd.X); t != nil {
				_, isMap = t.Underlying().(*types.Map)
			}
			w.recordUsesIn(nd.X)
			if nd.Key != nil {
				w.recordDefine(nd.Key)
			}
			if nd.Value != nil {
				w.recordDefine(nd.Value)
			}
			if isMap {
				w.mapRanges = append(w.mapRanges, nd)
			}
			w.walk(nd.Body)
			if isMap {
				w.mapRanges = w.mapRanges[:len(w.mapRanges)-1]
			}
			return false
		case *ast.AssignStmt:
			w.assign(nd)
			return false
		case *ast.IncDecStmt:
			w.record(nd.X, nd.Pos(), true)
			return false
		case *ast.DeferStmt:
			// A deferred Unlock runs at exit, so the mutex stays held for
			// the rest of the body — the decrement must not fire here.
			// Deferred Locks are equally exit-time and ignored.
			if _, _, ok := syncMethod(w.du.pass, nd.Call, "sync.Mutex", "sync.RWMutex"); ok {
				w.recordUsesIn(nd.Call)
				return false
			}
			return true
		case *ast.CallExpr:
			if _, name, ok := syncMethod(w.du.pass, nd, "sync.Mutex", "sync.RWMutex"); ok {
				switch name {
				case "Lock", "RLock", "TryLock", "TryRLock":
					w.held++
				case "Unlock", "RUnlock":
					if w.held > 0 {
						w.held--
					}
				}
			}
			w.recordUsesIn(nd)
			return false
		case *ast.Ident:
			w.recordUse(nd)
			return true
		}
		return true
	})
}

// assign records the writes of one assignment statement, pairing each
// left-hand side with its right-hand side where the arity allows.
func (w *defUseWalk) assign(as *ast.AssignStmt) {
	for _, rhs := range as.Rhs {
		w.recordUsesIn(rhs)
	}
	accum := false
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
	default:
		accum = true // +=, -=, *=, /=, and the rest of the op-assigns
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if as.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if w.du.pass.Info.Defs[id] != nil {
					continue // pure definition, not a write to outer state
				}
			}
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		isAccum := accum
		if !isAccum && rhs != nil {
			isAccum = selfReferential(w.du.pass, lhs, rhs)
		}
		if rhs != nil && isAppendTo(w.du.pass, lhs, rhs) {
			w.record(lhs, as.Pos(), false)
			w.Writes()[len(w.Writes())-1].Kind = WriteAppend
			continue
		}
		w.record(lhs, as.Pos(), isAccum)
	}
}

// Writes exposes the slice being built so assign can retag the last
// entry.
func (w *defUseWalk) Writes() []VarWrite { return w.du.Writes }

// record classifies one write target and appends the VarWrite.
func (w *defUseWalk) record(target ast.Expr, pos token.Pos, accum bool) {
	vw := VarWrite{
		Pos:    pos,
		Kind:   WriteAssign,
		Target: target,
		Accum:  accum,
	}
	base := ast.Unparen(target)
	if ix, ok := base.(*ast.IndexExpr); ok {
		vw.Index = ix.Index
		w.recordUsesIn(ix.Index)
		vw.Kind = WriteIndex
		if t := w.du.pass.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				vw.Kind = WriteMapIndex
			}
		}
	}
	vw.Obj = rootObject(w.du.pass, target)
	if accum {
		if t := w.du.pass.TypeOf(target); t != nil {
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
				vw.FloatAccum = true
			}
		}
	}
	if len(w.mapRanges) > 0 {
		vw.InMapRange = true
		vw.RangeSrc = w.mapRanges[len(w.mapRanges)-1].X
		vw.RangeStmt = w.mapRanges[len(w.mapRanges)-1]
	}
	vw.UnderMutex = w.held > 0
	w.du.Writes = append(w.du.Writes, vw)
}

func (w *defUseWalk) recordUse(id *ast.Ident) {
	obj := w.du.pass.ObjectOf(id)
	if _, isVar := obj.(*types.Var); isVar {
		w.du.uses[obj] = append(w.du.uses[obj], id.Pos())
	}
}

func (w *defUseWalk) recordUsesIn(e ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// Nested literal bodies run with this function's side effects
			// attributed to it (the call graph's attribution rule), so
			// their writes count here too.
			w.walk(lit.Body)
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			w.recordUse(id)
		}
		return true
	})
}

func (w *defUseWalk) recordDefine(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		if w.du.pass.Info.Defs[id] == nil {
			// Assignment form of range (k, v pre-declared): a write.
			w.record(e, e.Pos(), false)
		}
	}
}

// rootObject unwraps selectors, indexes, stars and parens to the base
// identifier's object: the variable a compound write ultimately reaches
// through.
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.ObjectOf(t)
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// selfReferential reports whether rhs reads the variable lhs writes —
// the x = x + e accumulation spelling.
func selfReferential(p *Pass, lhs, rhs ast.Expr) bool {
	obj := rootObject(p, lhs)
	if obj == nil {
		return false
	}
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
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
