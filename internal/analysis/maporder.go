package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MaporderAnalyzer is the check that protects figure and report output
// from Go's per-run randomised map iteration order. It has two rules:
//
//   - Emit: a `for … range` over a map whose body emits — appends to a
//     slice declared outside the loop, writes through an io.Writer, or
//     calls a print/write-shaped method — is only deterministic if the
//     function also sorts. The heuristic is deliberately a tripwire, not
//     a prover: any call to a sort-shaped function (package sort,
//     slices.Sort*, slices.Sorted*, or a local helper with "sort" in its
//     name) anywhere in the same top-level function exempts the loop,
//     because the dominant safe idioms are "collect keys, sort, iterate"
//     and `for _, k := range slices.Sorted(maps.Keys(m))` — both of
//     which leave a visible sort call behind.
//   - Fold: a float accumulation (x op= e, x = x ± * / e, x++) inside a
//     range over a map, into storage declared outside the innermost such
//     range, sums in iteration order, and float addition is not
//     associative, so every run can produce different low bits. A sort
//     elsewhere in the function does not exempt it: the fold happened
//     before anything could be sorted. Nested function literals are
//     judged with the range that encloses them.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "emitting or float-folding in a map range makes output depend on random iteration order",
	Run:  runMaporder,
}

func runMaporder(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorts := containsSortCall(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(p, rs) {
					return true
				}
				if desc := findEmit(p, rs); desc != "" && !sorts {
					p.Reportf(rs.For, "range over map %s %s, but the function never sorts; collect the keys, sort them, then emit", types.ExprString(rs.X), desc)
				}
				reportFolds(p, rs)
				return true
			})
		}
	}
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(p *Pass, rs *ast.RangeStmt) bool {
	t := p.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// reportFolds flags the float accumulations whose innermost enclosing
// map range is rs and whose target outlives one iteration of it.
func reportFolds(p *Pass, rs *ast.RangeStmt) {
	fold := func(target ast.Expr, pos token.Pos) {
		t := p.TypeOf(target)
		if t == nil {
			return
		}
		if basic, ok := t.Underlying().(*types.Basic); !ok || basic.Info()&types.IsFloat == 0 {
			return
		}
		// A target declared inside the range resets every iteration: no
		// cross-iteration fold. An unresolvable base is skipped, not
		// guessed.
		obj := rootObject(p, target)
		if obj == nil || obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return
		}
		p.Reportf(pos, "non-associative float fold: %s accumulates in a range over map %s, whose iteration order is randomized per run; iterate sortx.Keys (or sort before folding) so the sum order is canonical (DESIGN.md §7)",
			types.ExprString(target), types.ExprString(rs.X))
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is visited on its own and judges its
			// body against itself, the innermost range.
			return !isMapRange(p, n)
		case *ast.IncDecStmt:
			fold(n.X, n.Pos())
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch {
				case n.Tok != token.ASSIGN && n.Tok != token.DEFINE:
					fold(lhs, n.Pos()) // +=, -=, *=, /=
				case len(n.Rhs) == len(n.Lhs) && selfReferential(p, lhs, n.Rhs[i]):
					fold(lhs, n.Pos()) // x = x + e
				}
			}
		}
		return true
	})
}

// selfReferential reports whether rhs is an arithmetic expression that
// reads the variable lhs writes: the x = x + e accumulation spelling.
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

// containsSortCall reports whether any call in the body resolves to a
// sort-shaped function.
func containsSortCall(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && strings.Contains(strings.ToLower(fn.Pkg().Path()), "sort") {
			found = true // package sort, internal/sortx, ...
		} else if strings.Contains(strings.ToLower(fn.Name()), "sort") {
			found = true
		}
		return !found
	})
	return found
}

// findEmit looks for an order-sensitive emission inside a map-range body
// and describes the first one found ("" when the loop is harmless —
// counting, set-building and map writes are order-insensitive).
func findEmit(p *Pass, rs *ast.RangeStmt) string {
	desc := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append to something that outlives the loop.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin && len(call.Args) > 0 && isOuter(p, call.Args[0], rs) {
				desc = "appends to " + types.ExprString(call.Args[0])
			}
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil {
			return true
		}
		// fmt.Fprint* straight into a writer.
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			desc = "writes via fmt." + fn.Name()
			return true
		}
		// Write/print-shaped method calls (w.Write, sb.WriteString,
		// r.printf, enc.Emit, ...).
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			name := strings.ToLower(fn.Name())
			for _, prefix := range []string{"write", "print", "fprint", "emit", "render"} {
				if strings.HasPrefix(name, prefix) {
					desc = "calls " + types.ExprString(call.Fun)
					return true
				}
			}
		}
		return true
	})
	return desc
}

// isOuter reports whether the expression refers to storage declared
// outside the range statement. Selectors and index expressions always
// reach outer structure; plain identifiers are resolved by declaration
// position.
func isOuter(p *Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
