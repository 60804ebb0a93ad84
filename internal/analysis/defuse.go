package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the classification layer membound and escape share:
// every variable a function body references is its own parameter, a
// local, or captured outer state, plus the expression helpers that find
// the variable a compound write reaches through. Like the call graph,
// the layer over-approximates: a base expression that does not resolve
// to a variable yields no object, and clients skip it rather than guess.

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

// DefUse classifies the variables of one function body.
type DefUse struct {
	body *ast.BlockStmt
	// params holds the analyzed function's own parameter and named-result
	// objects.
	params map[types.Object]bool
}

// FuncDefUse builds the classification for a function given its type
// and body. For function literals pass lit.Type and lit.Body; for
// declarations decl.Type and decl.Body — the receiver is deliberately
// not a parameter, so state reached through it classifies as captured.
func (m *Module) FuncDefUse(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) *DefUse {
	du := &DefUse{body: body, params: make(map[types.Object]bool)}
	for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					du.params[obj] = true
				}
			}
		}
	}
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
