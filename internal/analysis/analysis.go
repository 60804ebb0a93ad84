// Package analysis is wearwild's hand-rolled static-analysis framework:
// a small analyzer harness built directly on the standard library's
// go/ast, go/parser, go/token and go/types (no golang.org/x/tools
// dependency) plus the repo-specific checks that keep the synthetic ISP
// pipeline deterministic and its concurrency honest.
//
// The pipeline's whole value is that EXPERIMENTS.md pins target moments
// and the figures in internal/core are byte-identical run to run. Nothing
// in the language stops a contributor from calling time.Now in sim code,
// sampling the global math/rand stream, or ranging over a map while
// emitting figure rows — so these invariants are machine-checked here and
// enforced by a tier-1 self-lint test (selflint_test.go) and by
// cmd/wearlint in CI.
//
// A diagnostic can be suppressed with a comment on the same line or the
// line directly above:
//
//	//wearlint:ignore <check> <reason>
//
// The reason is mandatory; a bare ignore is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
	// Path is the call chain of an interprocedural finding, root call
	// first; nil for single-position checks. A suppression directive on
	// any step of the chain silences the whole diagnostic.
	Path []PathStep
}

// PathStep is one call site along an interprocedural diagnostic's chain.
type PathStep struct {
	// Func names the calling function ("internal/study/sessions.Sessionize").
	Func string
	// Pos is the call site inside Func.
	Pos token.Position
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one check: a name for diagnostics and ignore comments, a
// one-line description, and the function that inspects the code. Run
// inspects one type-checked package at a time; RunModule, for
// interprocedural checks, runs once over the whole module with the call
// graph available. Exactly one of the two is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// ModulePass hands the whole module — every unit type-checked, the call
// graph built — to an interprocedural analyzer.
type ModulePass struct {
	Mod   *Module
	Graph *CallGraph

	diags *[]Diagnostic
	check string
}

// Reportf records a module-level diagnostic at pos with an optional call
// chain (root call first).
func (mp *ModulePass) Reportf(pos token.Pos, path []PathStep, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Check:   mp.check,
		Pos:     mp.Mod.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
		Path:    path,
	})
}

// NetConn returns the net.Conn interface type, or nil when the net
// package cannot be loaded.
func (mp *ModulePass) NetConn() *types.Interface {
	return mp.Mod.importer().netConn()
}

// NetListener returns the net.Listener interface type, or nil when the
// net package cannot be loaded.
func (mp *ModulePass) NetListener() *types.Interface {
	return mp.Mod.importer().netListener()
}

// Pass hands one lint unit (a package, with its in-package test files) to
// an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Rel is the module-relative package directory ("internal/core",
	// "cmd/wearsim", "" for the module root package).
	Rel   string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
	// Writer is the io.Writer interface type, for implements checks.
	// Nil when the io package could not be loaded.
	Writer *types.Interface

	diags *[]Diagnostic
	check string
}

// Reportf records a diagnostic for the current analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// DefaultAnalyzers returns every check, in stable order: the two
// intraprocedural tripwires (maporder, errdrop), then the call-graph and
// dataflow checks — detreach, the determinism check; lockheld;
// shardpure, floatfold and mergeable, the shard-merge discipline;
// membound, the one memory check (slab retention, record growth, Sink
// retention, hot-path allocation); randsplit, the RNG-stream discipline —
// then the concurrency-safety three: ctxflow, the one collection-path
// and goroutine-lifecycle check (deadline-guarded conn I/O, bounded
// hot-loop sends, WaitGroup placement, bounded exit, cancellable
// collection-tier paths), and atomicmix and tickstop, which pin the
// collection tier's snapshot and timer-lifecycle invariants.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		MaporderAnalyzer,
		ErrdropAnalyzer,
		DetreachAnalyzer,
		LockheldAnalyzer,
		ShardpureAnalyzer,
		FloatfoldAnalyzer,
		MemboundAnalyzer,
		MergeableAnalyzer,
		RandsplitAnalyzer,
		CtxflowAnalyzer,
		AtomicmixAnalyzer,
		TickstopAnalyzer,
	}
}

// Run type-checks every unit of the module and applies the analyzers,
// returning suppressed-filtered diagnostics sorted by position. Units are
// type-checked once per Module and shared by every analyzer (and by
// repeat Runs); the call graph is likewise built once, on demand.
// Type-check failures are returned as error so a broken load never
// masquerades as a clean lint.
func (m *Module) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	if len(analyzers) == 0 {
		analyzers = DefaultAnalyzers()
	}
	var diags []Diagnostic
	ign := m.ignoreIndex(&diags)
	var typeErrs []string
	needGraph := false
	for _, u := range m.Units {
		pass, errs := m.pass(u)
		for _, err := range errs {
			typeErrs = append(typeErrs, fmt.Sprintf("%s: %v", u.Rel, err))
		}
		pass.diags = &diags
		for _, a := range analyzers {
			if a.Run == nil {
				needGraph = needGraph || a.RunModule != nil
				continue
			}
			pass.check = a.Name
			a.Run(pass)
		}
	}
	if needGraph {
		mp := &ModulePass{Mod: m, Graph: m.CallGraph(), diags: &diags}
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			mp.check = a.Name
			a.RunModule(mp)
		}
	}
	diags = ign.filter(diags, 0)
	if len(typeErrs) > 0 {
		n := len(typeErrs)
		if n > 10 {
			typeErrs = typeErrs[:10]
		}
		return diags, fmt.Errorf("type-checking failed (%d errors):\n  %s", n, strings.Join(typeErrs, "\n  "))
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// matchRel reports whether a module-relative package path matches a
// pattern list. A trailing "/..." matches the prefix and everything
// under it; otherwise the match is exact.
func matchRel(rel string, patterns []string) bool {
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == root || strings.HasPrefix(rel, root+"/") {
				return true
			}
			continue
		}
		if rel == pat {
			return true
		}
	}
	return false
}
