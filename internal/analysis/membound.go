package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MemboundAnalyzer is the memory check: nothing the pipeline holds may
// outlive the bound its path promises. Four rules, each at its own scope
// (DESIGN.md §5):
//
//   - Slab retention (every non-test function): a scratch slab reused
//     across iterations — reset with x = x[:0] or cap-guard regrown with
//     if cap(x) < n { x = make(...) } anywhere in the lint unit — must not
//     be returned, stored into anything but a fresh local, or appended as
//     a header (append(out, buf) without ...). Calls count as copies, and
//     aliases are tracked through plain definitions only.
//   - Unbounded record growth (functions reachable from the study and
//     decoder roots, growthScope): an append or map insert of a value
//     transitively containing an internal/mnet Record, inside a record
//     loop, into state that outlives the loop. Fixed-slot writes, scratch
//     resets, per-iteration locals and the bounded-by-input regroup (a
//     range over a slice parameter into a local no return mentions) pass;
//     growth through a call boundary is not tracked.
//   - Sink retention (every stream.Sink implementation, matched by method
//     set): a record-bearing parameter of a contract method must not
//     escape the call, per the escape layer (escape.go); escapes in
//     callees are reported at the terminal site with the forwarding chain.
//   - Hot-path allocation (functions reachable from the generator root,
//     allocScope): inside any lexical loop, no allocating composite
//     literal, cap-unguarded append, bare make, fmt.Sprint*, string/byte
//     conversion or closure. The slab grammar, make with capacity and an
//     in-place filter alias (out := v[:k]) are reuse disciplines.
//
// The rules share their work: one slab-marker pass per unit serves
// retention (unit-wide) and allocation (per function), one pass over the
// module's declarations applies retention, growth and allocation to each
// function their scopes hold, and the record-type test is memoised for
// growth and Sink retention.
//
// Each line gets one verdict: when several rules flag a line, only the
// findings of the first in the order above stand — a retained slab or a
// materialised log subsumes the generic allocation complaint on the same
// append.
var MemboundAnalyzer = &Analyzer{
	Name:      "membound",
	Doc:       "bounded memory: no slab aliased past its iteration, no record-bearing growth on study/decoder paths, no Sink keeping its records, no per-record allocation on generator paths",
	RunModule: runMembound,
}

// memRule ranks membound's rules: on a line several flag, the lowest
// rank's findings stand.
type memRule int

const (
	memRetain memRule = iota
	memGrowth
	memSink
	memAlloc
)

// memScope is a reachability rule's surface: the non-test functions
// reachable from the root packages' non-test functions, minus the
// exempt packages.
type memScope struct{ roots, exempt []string }

// growthScope: the study and the three log codecs. internal/stats holds
// bounded accumulators by construction (DESIGN.md §7), and the generator
// tree builds the records the study consumes — its output is the
// simulation, not a study-path leak.
var growthScope = memScope{
	roots:  []string{"internal/core", "internal/stream", "internal/mnet/proxylog", "internal/mnet/mme", "internal/mnet/udr"},
	exempt: []string{"internal/stats", "internal/gen/..."},
}

// allocScope: the generator hot path. Exempt are build-once setup
// (population, app catalog, cell plan, device db), the RNG and stats
// kernels whose buffers are their own contract, the shard runtime, and
// the study-side packages the growth rule polices.
var allocScope = memScope{
	roots: []string{"internal/gen/sim"},
	exempt: []string{
		"internal/gen/population", "internal/gen/apps", "internal/randx", "internal/stats",
		"internal/mnet/cells", "internal/mnet/devicedb", "internal/shard", "internal/core",
		"internal/stream", "internal/study/...", "internal/mnet/proxylog", "internal/mnet/mme",
		"internal/mnet/udr",
	},
}

// memFinding is one rule's candidate diagnostic, held until every rule
// has run so each line keeps one verdict.
type memFinding struct {
	rule memRule
	pos  token.Pos
	path []PathStep
	msg  string
}

// memKey identifies a reported site: growth and allocation report a
// position once, the Sink rule a position and escape kind once, and
// retention a position and spelling once.
type memKey struct {
	rule memRule
	pos  token.Pos
	kind string
}

// membound is one run's state.
type membound struct {
	mp      *ModulePass
	records map[types.Type]bool
	seen    map[memKey]bool
	found   []memFinding
}

func newMembound(mp *ModulePass) *membound {
	return &membound{mp: mp, records: map[types.Type]bool{}, seen: map[memKey]bool{}}
}

func runMembound(mp *ModulePass) {
	m := newMembound(mp)
	m.collect()
	m.emit()
}

// collect runs every rule and gathers their findings.
func (m *membound) collect() {
	mod, g := m.mp.Mod, m.mp.Graph
	growth := g.ReachableFromPkgs(growthScope.roots)
	alloc := g.ReachableFromPkgs(allocScope.roots)
	for _, u := range mod.Units {
		pass, _ := mod.pass(u)
		unitSlabs, fnSlabs := slabMarkers(pass, u.Files)
		for _, f := range u.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if len(unitSlabs) > 0 {
					m.retain(pass, fd, unitSlabs)
				}
				fn, _ := pass.ObjectOf(fd.Name).(*types.Func)
				if fn == nil {
					continue
				}
				n := g.Nodes[fn.FullName()]
				if n == nil || n.Decl != fd {
					continue
				}
				if growth.Contains(n) && !matchRel(n.Rel, growthScope.exempt) {
					m.growth(n, pathSteps(mod, growth.PathTo(n)))
				}
				if alloc.Contains(n) && !matchRel(n.Rel, allocScope.exempt) {
					m.alloc(n, pathSteps(mod, alloc.PathTo(n)), fnSlabs[fd])
				}
			}
		}
	}
	m.sinks()
}

// emit reports, on each line, the findings of the first rule to flag it.
func (m *membound) emit() {
	type line struct {
		file string
		n    int
	}
	lineOf := func(pos token.Pos) line {
		p := m.mp.Mod.Fset.Position(pos)
		return line{p.Filename, p.Line}
	}
	first := map[line]memRule{}
	for _, f := range m.found {
		if r, ok := first[lineOf(f.pos)]; !ok || f.rule < r {
			first[lineOf(f.pos)] = f.rule
		}
	}
	for _, f := range m.found {
		if first[lineOf(f.pos)] == f.rule {
			m.mp.Reportf(f.pos, f.path, "%s", f.msg)
		}
	}
}

// report records a finding unless its rule already reported the same
// position and kind.
func (m *membound) report(rule memRule, kind string, pos token.Pos, path []PathStep, format string, args ...any) {
	key := memKey{rule, pos, kind}
	if m.seen[key] {
		return
	}
	m.seen[key] = true
	m.found = append(m.found, memFinding{rule, pos, path, fmt.Sprintf(format, args...)})
}

// isRecord is containsRecordType, memoised per type.
func (m *membound) isRecord(t types.Type) bool {
	r, ok := m.records[t]
	if !ok {
		r = containsRecordType(m.mp.Mod, t)
		m.records[t] = r
	}
	return r
}

// slabMarkers is the one marker pass over a unit's non-test files: the
// slabs each function marks, and the unit's slabs — their union with
// the markers in package-level initializers.
func slabMarkers(p *Pass, files []*ast.File) (unit map[types.Object]bool, byFunc map[*ast.FuncDecl]map[types.Object]bool) {
	unit, byFunc = map[types.Object]bool{}, map[*ast.FuncDecl]map[types.Object]bool{}
	for _, f := range files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			own := map[types.Object]bool{}
			ast.Inspect(decl, func(nd ast.Node) bool {
				collectSlabMarkers(p, nd, own)
				return true
			})
			for obj := range own {
				unit[obj] = true
			}
			if fd, ok := decl.(*ast.FuncDecl); ok && len(own) > 0 {
				byFunc[fd] = own
			}
		}
	}
	return unit, byFunc
}

// collectSlabMarkers records the slice objects a node marks as reused
// slabs: a reset to zero length (x = x[:0]) or a cap-guarded regrow
// (if cap(x) < n { x = make(...) }).
func collectSlabMarkers(p *Pass, nd ast.Node, slabs map[types.Object]bool) {
	switch nd := nd.(type) {
	case *ast.AssignStmt:
		if len(nd.Lhs) != len(nd.Rhs) {
			return
		}
		for i, lhs := range nd.Lhs {
			se, ok := ast.Unparen(nd.Rhs[i]).(*ast.SliceExpr)
			if !ok || !isZeroConst(p, se.High) {
				continue
			}
			if lo := slabObject(p, lhs); lo != nil && lo == slabObject(p, se.X) {
				slabs[lo] = true
			}
		}
	case *ast.IfStmt:
		obj := capGuardObj(p, nd.Cond)
		if obj == nil {
			return
		}
		ast.Inspect(nd.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && slabObject(p, lhs) == obj {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
						slabs[obj] = true
					}
				}
			}
			return true
		})
	}
}

// slabObject resolves a plain or selector expression to a slice-typed
// object (local, param, or struct field).
func slabObject(p *Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = p.ObjectOf(t)
	case *ast.SelectorExpr:
		obj = p.ObjectOf(t.Sel)
	default:
		return nil
	}
	if obj == nil || obj.Type() == nil {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return obj
}

// capGuardObj matches a condition mentioning cap(x) and returns x's
// object.
func capGuardObj(p *Pass, cond ast.Expr) types.Object {
	var obj types.Object
	ast.Inspect(cond, func(nd ast.Node) bool {
		if obj != nil {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "cap" {
			return true
		}
		if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return true
		}
		obj = slabObject(p, call.Args[0])
		return obj == nil
	})
	return obj
}

// retain applies the slab-retention rule to one declaration.
func (m *membound) retain(p *Pass, fd *ast.FuncDecl, slabs map[types.Object]bool) {
	du := m.mp.Mod.FuncDefUse(p, fd.Type, fd.Body)
	aliases := map[types.Object]bool{}

	// isSlabRef reports whether e reads a slab or alias directly: bare
	// name, selector, or slice expression over one.
	var isSlabRef func(e ast.Expr) bool
	isSlabRef = func(e ast.Expr) bool {
		switch t := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			return isSlabRef(t.X)
		case *ast.Ident, *ast.SelectorExpr:
			o := slabObject(p, e)
			return o != nil && (slabs[o] || aliases[o])
		}
		return false
	}
	report := func(pos token.Pos, what, how string) {
		m.report(memRetain, what+" "+how, pos, nil,
			"slab retention: %s %s a reused scratch buffer past the iteration that filled it; copy first (string(buf) or append([]byte(nil), buf...)) (DESIGN.md §5)",
			what, how)
	}

	// flagReturned flags slab refs inside a return result, descending
	// composite literals but treating calls as copies.
	var flagReturned func(e ast.Expr)
	flagReturned = func(e ast.Expr) {
		switch t := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			for _, el := range t.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				flagReturned(el)
			}
		case *ast.UnaryExpr:
			flagReturned(t.X)
		default:
			if isSlabRef(e) {
				report(e.Pos(), types.ExprString(e), "returns")
			}
		}
	}

	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if len(nd.Lhs) != len(nd.Rhs) {
				return true
			}
			for i, lhs := range nd.Lhs {
				rhs := nd.Rhs[i]
				// append(out, buf) without ... keeps the alias alive inside
				// another slice; append(out, buf...) copies the bytes.
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && call.Ellipsis == token.NoPos {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
						if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin {
							for _, arg := range call.Args[1:] {
								if isSlabRef(arg) {
									report(arg.Pos(), types.ExprString(arg), "appends")
								}
							}
						}
					}
				}
				if !isSlabRef(rhs) {
					continue
				}
				// Storing into the slab itself is the reuse pattern.
				if so := slabObject(p, lhs); so != nil && slabs[so] {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && nd.Tok == token.DEFINE {
					if o := p.Info.Defs[id]; o != nil {
						aliases[o] = true // buf := slab[:n] — a fresh local alias
						continue
					}
				}
				lobj := rootObject(p, lhs)
				if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex || lobj == nil || du.ClassOf(lobj) != ClassLocal {
					report(nd.Pos(), types.ExprString(lhs), "stores")
					continue
				}
				aliases[lobj] = true // plain local reassignment: track the alias
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				flagReturned(res)
			}
		}
		return true
	})
}

// growth applies the unbounded-growth rule to one reachable function:
// every record loop's growth writes.
func (m *membound) growth(n *Node, chain []PathStep) {
	pass, mod := n.Pass, m.mp.Mod
	du := mod.FuncDefUse(pass, n.Decl.Type, n.Decl.Body)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		loop, body := recordLoop(pass, mod, nd)
		if loop == nil {
			return true
		}
		resets := resetObjects(pass, body)
		ast.Inspect(body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				m.growthAssign(n, du, loop, resets, as, as.Lhs[i], as.Rhs[i], chain)
			}
			return true
		})
		return true // nested record loops report at their own sites; positions dedupe
	})
}

// growthAssign judges one assignment inside a record loop.
func (m *membound) growthAssign(n *Node, du *DefUse, loop ast.Stmt, resets map[types.Object]bool,
	as *ast.AssignStmt, lhs, rhs ast.Expr, chain []PathStep) {

	pass := n.Pass
	var stored types.Type
	var kind string
	if isAppendTo(pass, lhs, rhs) {
		if resetAppend(pass, rhs) {
			return // append(x[:0], ...): scratch reuse, not growth
		}
		t := pass.TypeOf(lhs)
		if t == nil {
			return
		}
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return
		}
		stored, kind = sl.Elem(), "append"
	} else {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return
		}
		t := pass.TypeOf(ix.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return // fixed-slot slice/array store: does not grow
		}
		stored, kind = pass.TypeOf(lhs), "map insert"
	}
	if stored == nil || !m.isRecord(stored) {
		return // bounded accumulator: value carries no records (DESIGN.md §7)
	}
	obj := rootObject(pass, lhs)
	if obj == nil || resets[obj] {
		return
	}
	if du.ClassOf(obj) == ClassLocal && obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
		return // per-iteration state dies with the loop
	}
	if boundedRegroup(pass, du, loop, n.Decl.Body, obj) {
		return // regroup of a parameter slice into a non-escaping local
	}
	m.report(memGrowth, "", as.Pos(), chain,
		"unbounded growth: %s into %s inside a record loop materialises record-bearing state that outlives the loop%s; stream per record or use a bounded accumulator (DESIGN.md §7)",
		kind, types.ExprString(lhs), reachedVia(m.mp.Mod, chain, n))
}

// boundedRegroup reports whether a growth write is the bounded-by-input
// regroup shape: the record loop ranges over a slice or array parameter,
// the target is a local declared in the function body, and no return
// statement mentions that local. Such a function's peak residency is a
// constant factor of its own input — on the streaming paths the input is
// one shard's or one subscriber's records — and the regrouped state dies
// when the call returns. A channel subject never qualifies (a tail is
// unbounded input), and a returned local is the materialise-and-hand-back
// habit the rule targets, so both keep flagging.
func boundedRegroup(pass *Pass, du *DefUse, loop ast.Stmt, fnBody *ast.BlockStmt, obj types.Object) bool {
	rs, ok := loop.(*ast.RangeStmt)
	if !ok {
		return false
	}
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
	default:
		return false // channels (and maps of records) are not bounded inputs
	}
	subj := rootObject(pass, rs.X)
	if subj == nil || du.ClassOf(subj) != ClassParam || du.ClassOf(obj) != ClassLocal {
		return false
	}
	return !usedInReturns(pass, fnBody, obj)
}

// usedInReturns reports whether any return statement in body (including
// inside nested function literals) mentions obj.
func usedInReturns(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if ret, ok := nd.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				ast.Inspect(res, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
		}
		return !found
	})
	return found
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

// containsRecordType reports whether t transitively contains a record
// type through struct fields, slices, arrays, maps and pointers.
func containsRecordType(mod *Module, t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type, depth int) bool
	walk = func(t types.Type, depth int) bool {
		if t == nil || depth > 8 || seen[t] {
			return false
		}
		seen[t] = true
		if isRecordType(mod, t) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			return walk(u.Elem(), depth+1)
		case *types.Slice:
			return walk(u.Elem(), depth+1)
		case *types.Array:
			return walk(u.Elem(), depth+1)
		case *types.Map:
			return walk(u.Key(), depth+1) || walk(u.Elem(), depth+1)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type(), depth+1) {
					return true
				}
			}
		}
		return false
	}
	return walk(t, 0)
}

// resetObjects collects slice variables reset to zero length (x = x[:0])
// anywhere in the loop body: the scratch-reuse idiom.
func resetObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			se, ok := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr)
			if !ok || !isZeroConst(pass, se.High) {
				continue
			}
			if lo := rootObject(pass, lhs); lo != nil && lo == rootObject(pass, se.X) {
				out[lo] = true
			}
		}
		return true
	})
	return out
}

// resetAppend matches append(x[:0], ...): growth into a buffer the
// caller resets first.
func resetAppend(pass *Pass, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	return ok && isZeroConst(pass, se.High)
}

// isZeroConst reports whether e is the integer constant 0.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// sinks applies the Sink-retention rule to every module type whose
// method set satisfies the internal/stream Sink contract, in receiver
// and method-name order, so the first method reaching a shared escape
// site names it.
func (m *membound) sinks() {
	want := sinkContract(m.mp.Mod)
	if len(want) == 0 {
		return
	}
	es := m.mp.Mod.EscapeSummaries("record", m.isRecord)
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)

	byRecv := map[string]map[string]*Node{}
	var recvs []string
	m.mp.Graph.Walk(func(n *Node) {
		if !n.InModule || n.Fn == nil || n.Decl == nil || n.Decl.Body == nil {
			return
		}
		key := recvKey(n.Fn)
		if key == "" {
			return
		}
		if byRecv[key] == nil {
			byRecv[key] = map[string]*Node{}
			recvs = append(recvs, key)
		}
		byRecv[key][n.Fn.Name()] = n
	})
	sort.Strings(recvs)
	for _, key := range recvs {
		methods := byRecv[key]
		impl := true
		for name, sk := range want {
			if n := methods[name]; n == nil || sigTypesKey(n.Fn.Type()) != sk {
				impl = false
				break
			}
		}
		if impl {
			for _, name := range names {
				m.sinkMethod(es, methods[name])
			}
		}
	}
}

// sinkMethod reports every escape of a record-bearing parameter of one
// Sink method.
func (m *membound) sinkMethod(es *EscapeSet, n *Node) {
	fe := es.Of(n)
	if n.Test || fe == nil {
		return
	}
	mod := m.mp.Mod
	for i, obj := range declParams(n.Pass, n.Decl.Type) {
		if i >= len(fe.Params) || !m.isRecord(obj.Type()) {
			continue
		}
		pe := fe.Params[i]
		for _, k := range escKindOrder {
			if k&escHeapKinds == 0 || pe.Kinds&k == 0 {
				continue
			}
			steps := append([]PathStep(nil), pe.Steps[k]...)
			where := ""
			if len(steps) > 0 {
				chain := append(append([]PathStep(nil), steps...), PathStep{Func: pe.Terminal[k]})
				where = " in " + pe.Terminal[k] + " (via " + renderSteps(chain) + ")"
			}
			pos := pe.Site[k]
			m.report(memSink, k.Describe(), pos, steps,
				"sink retention: record parameter %s of %s (a stream.Sink implementation) is %s%s; a Sink must fold records into bounded accumulators or copy what it keeps before returning (DESIGN.md §8)",
				obj.Name(), n.DisplayName(mod), k.Describe(), where)
		}
	}
}

// sinkContract returns the Sink interface's method set as name →
// printed signature, or nil when internal/stream is not part of the
// module (fixture trees without the contract).
func sinkContract(mod *Module) map[string]string {
	u := mod.unitFor("internal/stream")
	if u == nil {
		return nil
	}
	pass, _ := mod.pass(u)
	if pass == nil || pass.Pkg == nil {
		return nil
	}
	tn, ok := pass.Pkg.Scope().Lookup("Sink").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	out := map[string]string{}
	for i := 0; i < iface.NumMethods(); i++ {
		out[iface.Method(i).Name()] = sigTypesKey(iface.Method(i).Type())
	}
	return out
}

// sigTypesKey prints a signature by parameter and result types alone,
// pkg-path qualified. Unlike sigKey it drops the variable names: the
// interface and its implementations spell them differently, and the
// method-set match must not care.
func sigTypesKey(t types.Type) string {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	var sb strings.Builder
	tuple := func(tu *types.Tuple) {
		sb.WriteByte('(')
		for i := 0; i < tu.Len(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(types.TypeString(tu.At(i).Type(), qual))
		}
		sb.WriteByte(')')
	}
	tuple(sig.Params())
	sb.WriteString("→")
	tuple(sig.Results())
	if sig.Variadic() {
		sb.WriteString("...")
	}
	return sb.String()
}

// recvKey names a method's receiver type across type-check universes.
func recvKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// alloc applies the hot-path allocation rule to one reachable function:
// every lexical loop, nested literals included. slabs holds the slabs
// the function itself marks.
func (m *membound) alloc(n *Node, chain []PathStep, slabs map[types.Object]bool) {
	pass, body := n.Pass, n.Decl.Body

	// The other reuse disciplines are collected function-wide too:
	// slices made with an explicit capacity, and in-place filter aliases.
	madeWithCap := map[types.Object]bool{}
	sliceAlias := map[types.Object]bool{}
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := rootObject(pass, lhs)
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				if isMakeCall(pass, rhs) && len(rhs.Args) == 3 {
					madeWithCap[obj] = true
				}
			case *ast.SliceExpr:
				sliceAlias[obj] = true
			}
		}
		return true
	})
	reused := func(obj types.Object) bool { return slabs[obj] || madeWithCap[obj] || sliceAlias[obj] }

	where := reachedVia(m.mp.Mod, chain, n)
	flag := func(pos token.Pos, what, advice string) {
		m.report(memAlloc, "", pos, chain,
			"hot-path allocation: %s inside a loop on a generator path%s; %s — ROADMAP item 2's worklist",
			what, where, advice)
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch l := nd.(type) {
		case *ast.ForStmt:
			allocLoop(pass, l.Body, slabs, reused, flag)
		case *ast.RangeStmt:
			allocLoop(pass, l.Body, slabs, reused, flag)
		}
		return true // nested loops re-walk and dedupe by position
	})
}

// allocLoop flags the allocation shapes inside one loop body.
func allocLoop(pass *Pass, loopBody *ast.BlockStmt, slabs map[types.Object]bool, reused func(types.Object) bool,
	flag func(token.Pos, string, string)) {

	handledLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(loopBody, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if len(nd.Lhs) != len(nd.Rhs) {
				return true
			}
			for i, lhs := range nd.Lhs {
				rhs := nd.Rhs[i]
				obj := rootObject(pass, lhs)
				if isAppendTo(pass, lhs, rhs) {
					if !resetAppend(pass, rhs) && !reused(obj) {
						flag(rhs.Pos(), "cap-unguarded append into "+types.ExprString(lhs)+" grows per iteration",
							"preallocate with make(T, 0, n), adopt the retain slab grammar, or stream instead of collecting")
					}
				} else if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isMakeCall(pass, call) && !slabs[obj] {
					flag(call.Pos(), "make("+types.ExprString(call.Args[0])+", ...) allocates per iteration",
						"hoist the make and reset with x = x[:0], or cap-guard it (if cap(x) < n { x = make(...) })")
				}
			}
		case *ast.UnaryExpr:
			if cl, ok := ast.Unparen(nd.X).(*ast.CompositeLit); ok && nd.Op == token.AND {
				handledLit[cl] = true
				flag(nd.Pos(), "&"+allocLitName(pass, cl)+"{...} allocates per iteration",
					"hoist the value outside the loop and reuse it")
			}
		case *ast.CompositeLit:
			if handledLit[nd] {
				return true
			}
			if t := pass.TypeOf(nd); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(nd.Pos(), allocLitName(pass, nd)+" literal allocates per iteration",
						"hoist it, or fill a slab reset with x = x[:0] (retain grammar)")
				}
			}
		case *ast.CallExpr:
			if name, ok := sprintfFamily(pass, nd); ok {
				flag(nd.Pos(), "fmt."+name+" allocates its result per iteration",
					"format once outside the loop or append into a reused []byte")
			}
			if what, ok := allocConversion(pass, nd); ok {
				flag(nd.Pos(), what+" conversion copies per iteration",
					"keep one representation across the loop or reuse a slab")
			}
		case *ast.FuncLit:
			flag(nd.Pos(), "function literal allocates a closure per iteration",
				"hoist the closure (and the variables it captures) outside the loop")
		}
		return true // allocations inside a literal are audited too
	})
}

// isMakeCall matches the builtin make.
func isMakeCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := pass.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// sprintfFamily matches the per-call-allocating fmt formatters
// (fmt.Errorf is deliberately not one: it allocates on failure paths,
// which abort the run rather than repeat).
func sprintfFamily(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		return fn.Name(), true
	}
	return "", false
}

// allocConversion matches string↔[]byte/[]rune conversions, the ones
// that copy their operand.
func allocConversion(pass *Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	dst, src := tv.Type, pass.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return "", false
	}
	switch {
	case isStringKind(dst) && isByteishKind(src):
		return "[]byte→string", true
	case isByteishKind(dst) && isStringKind(src):
		return "string→" + types.TypeString(dst, nil), true
	}
	return "", false
}

func isStringKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteishKind(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allocLitName renders a composite literal's type for the message.
func allocLitName(pass *Pass, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	if t := pass.TypeOf(cl); t != nil {
		return t.String()
	}
	return "composite"
}
