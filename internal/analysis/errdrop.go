package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrdropAnalyzer flags every error-returning call whose result is
// discarded: a call used as a bare statement (or deferred) whose callee
// returns an error — the Study.planCost bug class, where a computed error
// was dropped on the floor and a broken plan-cost table shipped silently.
// `_ = f()` is the explicit, greppable opt-out; a deferred call takes it
// inside a literal, `defer func() { _ = f.Close() }()`.
//
// Non-test code gets that full rule. _test.go files may shed errors for
// brevity, so there only the writer path is guarded: a dropped Close or
// Flush on an io.Writer (bufio.Writer, gzip.Writer, os.File, ...), which
// silently truncates proxylog, report and dataset output, inside a
// function that returns an error itself and so could have propagated it.
//
// Exemptions, all cases where the error is either unobtainable noise or
// surfaces later through a checked path:
//   - the fmt print family (Print/Printf/Println/Fprint*/...), whose
//     errors re-surface at the destination's Close/Flush;
//   - methods on strings.Builder, bytes.Buffer and hash.Hash, which are
//     documented never to return a non-nil error;
//   - Close/Flush on files opened read-only with os.Open in the same
//     body, and on network transports (anything with a RemoteAddr
//     method), whose teardown errors after a completed exchange are
//     expected noise — actual byte loss there already surfaces as
//     read/write errors.
var ErrdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded error result (in _test.go files, a dropped Close/Flush on an io.Writer in a function that returns error); handle it or assign to _",
	Run:  runErrdrop,
}

func runErrdrop(p *Pass) {
	for _, f := range p.Files {
		writerOnly := p.IsTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft, body = n.Type, n.Body
			case *ast.FuncLit:
				ft, body = n.Type, n.Body
			}
			if body != nil && (!writerOnly || funcTypeReturnsError(p, ft)) {
				errdropBody(p, body, writerOnly)
			}
			return true
		})
	}
}

// errdropBody flags discarded error results in one function body,
// leaving nested literals to their own visit. writerOnly narrows it to
// dropped Close/Flush errors on io.Writers.
func errdropBody(p *Pass, body *ast.BlockStmt, writerOnly bool) {
	readOnly := openedReadOnly(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
		}
		if call == nil {
			return true
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		t := p.TypeOf(call.Fun)
		if t == nil {
			return true
		}
		sig, ok := t.Underlying().(*types.Signature)
		if !ok || !resultsContainError(sig.Results()) {
			return true
		}
		if errdropExempt(p, call, readOnly) || (writerOnly && !writerClose(p, call)) {
			return true
		}
		p.Reportf(call.Pos(),
			"error result of %s is discarded; handle it, or assign to _ to opt out (for a deferred call, defer func() { _ = f() }())",
			types.ExprString(call.Fun))
		return true
	})
}

// errdropExempt applies the documented exemption classes to one call.
func errdropExempt(p *Pass, call *ast.CallExpr, readOnly map[string]bool) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false // func-value call: no callee identity to exempt on
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	switch recv.String() {
	case "strings.Builder", "bytes.Buffer", "hash.Hash":
		return true
	}
	if fn.Name() == "Close" || fn.Name() == "Flush" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if rt := p.TypeOf(sel.X); rt != nil && isTransport(rt) {
				return true
			}
			if readOnly[types.ExprString(sel.X)] {
				return true
			}
		}
	}
	return false
}

// writerClose reports whether call is a Close or Flush method call on
// something that implements io.Writer.
func writerClose(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Flush") || p.Writer == nil {
		return false
	}
	t := p.TypeOf(sel.X)
	return t != nil && (types.Implements(t, p.Writer) || types.Implements(types.NewPointer(t), p.Writer))
}

// openedReadOnly collects the names bound to os.Open results in this
// body: their Close errors cannot signal lost writes.
func openedReadOnly(p *Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || fn.Name() != "Open" {
			return true
		}
		out[types.ExprString(as.Lhs[0])] = true
		return true
	})
	return out
}

// isTransport reports whether the type looks like a network connection.
func isTransport(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "RemoteAddr")
	if obj == nil {
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(t), true, nil, "RemoteAddr")
	}
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// funcTypeReturnsError reports whether the declared results include an
// error.
func funcTypeReturnsError(p *Pass, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if t := p.TypeOf(field.Type); t != nil && isErrorType(t) {
			return true
		}
	}
	return false
}

func resultsContainError(results *types.Tuple) bool {
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
