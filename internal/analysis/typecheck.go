package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// importerState is a from-source importer over the module's parsed units
// and the GOROOT source tree. It exists so the framework needs neither
// golang.org/x/tools nor pre-compiled export data: imported packages are
// parsed and type-checked with IgnoreFuncBodies, which is cheap and gives
// analyzers full type information for the packages they lint.
type importerState struct {
	mod      *Module
	ctxt     build.Context
	cache    map[string]*types.Package
	active   map[string]bool
	writer   *types.Interface
	conn     *types.Interface
	listener *types.Interface
}

func (m *Module) importer() *importerState {
	if m.imp == nil {
		ctxt := build.Default
		// Prefer the pure-Go variants of cgo-optional packages (net, ...):
		// their fallback files carry the declarations the cgo files would
		// otherwise provide, and we never need object code.
		ctxt.CgoEnabled = false
		m.imp = &importerState{
			mod:    m,
			ctxt:   ctxt,
			cache:  make(map[string]*types.Package),
			active: make(map[string]bool),
		}
	}
	return m.imp
}

// Import resolves an import path to a type-checked package: module
// packages from the already-parsed units, everything else from GOROOT
// source (with the std vendor directory as fallback).
func (s *importerState) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := s.cache[path]; ok {
		return pkg, nil
	}
	if s.active[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	s.active[path] = true
	defer delete(s.active, path)

	fset := s.mod.Fset
	var files []*ast.File
	if rel, ok := s.moduleRel(path); ok {
		u := s.mod.unitFor(rel)
		if u == nil {
			return nil, fmt.Errorf("no package at module path %q", path)
		}
		files = u.nonTest
	} else {
		dir, err := s.stdlibDir(path)
		if err != nil {
			return nil, err
		}
		bp, err := s.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("listing %s: %w", dir, err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}

	conf := types.Config{
		Importer:         s,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		// Imported packages only need their declarations to hold up;
		// body-level soft errors in foreign code are not our business.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	s.cache[path] = pkg
	return pkg, nil
}

// moduleRel maps an import path inside the module to its root-relative
// directory.
func (s *importerState) moduleRel(path string) (string, bool) {
	if path == s.mod.Name {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, s.mod.Name+"/"); ok {
		return rest, true
	}
	return "", false
}

// stdlibDir locates an import path under GOROOT/src, trying the std
// vendor tree second (crypto/tls and net/http vendor golang.org/x
// packages there).
func (s *importerState) stdlibDir(path string) (string, error) {
	root := s.ctxt.GOROOT
	for _, dir := range []string{
		filepath.Join(root, "src", filepath.FromSlash(path)),
		filepath.Join(root, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("package %q not found under %s", path, root)
}

// ioWriter returns the io.Writer interface type for implements checks.
func (s *importerState) ioWriter() *types.Interface {
	if s.writer != nil {
		return s.writer
	}
	s.writer = s.namedInterface("io", "Writer")
	return s.writer
}

// netConn returns the net.Conn interface type. Because the importer is
// shared by every unit's type check, the returned object is identical to
// the net.Conn any unit's type info refers to, so types.Implements works
// module-wide.
func (s *importerState) netConn() *types.Interface {
	if s.conn != nil {
		return s.conn
	}
	s.conn = s.namedInterface("net", "Conn")
	return s.conn
}

// netListener returns the net.Listener interface type, with the same
// shared-importer identity guarantee as netConn.
func (s *importerState) netListener() *types.Interface {
	if s.listener != nil {
		return s.listener
	}
	s.listener = s.namedInterface("net", "Listener")
	return s.listener
}

// namedInterface resolves an interface type by package path and name.
func (s *importerState) namedInterface(path, name string) *types.Interface {
	pkg, err := s.Import(path)
	if err != nil {
		return nil
	}
	obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// pass returns the unit's type-checked Pass, running the type check on
// first use and caching it. Every analyzer — intraprocedural checks, the
// call-graph build, repeat Runs — shares the same Pass per unit.
func (m *Module) pass(u *Unit) (*Pass, []error) {
	if p, ok := m.passes[u]; ok {
		return p, m.passErrs[u]
	}
	p, errs := m.typecheck(u)
	if m.passes == nil {
		m.passes = make(map[*Unit]*Pass)
		m.passErrs = make(map[*Unit][]error)
	}
	m.passes[u] = p
	m.passErrs[u] = errs
	return p, errs
}

// typecheck runs the full (bodies included) type check over one lint unit
// and assembles the Pass. Errors are returned rather than fatal so a
// partially broken unit still yields best-effort diagnostics.
func (m *Module) typecheck(u *Unit) (*Pass, []error) {
	imp := m.importer()
	var errs []error
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error: func(err error) {
			if len(errs) < 20 {
				errs = append(errs, err)
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	path := m.Name
	if u.Rel != "" {
		path += "/" + u.Rel
	}
	if strings.HasSuffix(u.Name, "_test") {
		// External test package: distinct identity from the package under
		// test, which it imports like anyone else.
		path += "_test"
	}
	pkg, _ := conf.Check(path, m.Fset, u.Files, info)
	return &Pass{
		Fset:   m.Fset,
		Rel:    u.Rel,
		Files:  u.Files,
		Info:   info,
		Pkg:    pkg,
		Writer: imp.ioWriter(),
	}, errs
}
