package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a parsed Go module: every package directory under the root,
// split into lint units.
type Module struct {
	Root string
	// Name is the module path from go.mod ("wearwild").
	Name string
	Fset *token.FileSet
	// Units holds one entry per package, plus one per external _test
	// package, sorted by Rel.
	Units []*Unit

	imp *importerState

	// passes caches the full type-check of each unit so every analyzer —
	// and every repeat Run — shares one Pass per unit instead of
	// re-walking the type checker.
	passes   map[*Unit]*Pass
	passErrs map[*Unit][]error
	// graph is the lazily built module-wide call graph.
	graph *CallGraph
}

// Unit is one lintable package: either a package proper together with its
// in-package _test.go files, or an external foo_test package.
type Unit struct {
	// Rel is the module-relative directory, "" for the root package.
	Rel string
	// Name is the package name ("core", "core_test").
	Name  string
	Files []*ast.File
	// nonTest indexes Files entries that are not _test.go files; the
	// importer type-checks only these when another package imports this
	// one.
	nonTest []*ast.File
}

// LoadModule parses every package under the directory containing go.mod.
// Directories named testdata or vendor and hidden directories are
// skipped.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	name, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Name: name, Fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		return m.loadDir(path, filepath.ToSlash(rel))
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.Units, func(i, j int) bool {
		if m.Units[i].Rel != m.Units[j].Rel {
			return m.Units[i].Rel < m.Units[j].Rel
		}
		return m.Units[i].Name < m.Units[j].Name
	})
	return m, nil
}

// LoadDir builds a single-unit module from one directory, placing the
// package at the given module-relative path. Fixture tests use this to
// exercise path-dependent allowlists.
func LoadDir(dir, rel string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: dir, Name: "wearwild", Fset: token.NewFileSet()}
	if err := m.loadDir(dir, rel); err != nil {
		return nil, err
	}
	if len(m.Units) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return m, nil
}

// LoadTree builds a multi-package module from a fixture tree: every
// directory under root that holds .go files becomes a unit mounted at
// mount/<subpath> (mount itself for root's own files). The cross-package
// fixture harness uses this to exercise call-graph edges between fake
// packages that import each other through the "wearwild/" module path.
func LoadTree(root, mount string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Name: "wearwild", Fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		at := mount
		if rel != "." {
			at = mount + "/" + filepath.ToSlash(rel)
		}
		return m.loadDir(path, at)
	})
	if err != nil {
		return nil, err
	}
	if len(m.Units) == 0 {
		return nil, fmt.Errorf("analysis: no Go files under %s", root)
	}
	sort.Slice(m.Units, func(i, j int) bool {
		if m.Units[i].Rel != m.Units[j].Rel {
			return m.Units[i].Rel < m.Units[j].Rel
		}
		return m.Units[i].Name < m.Units[j].Name
	})
	return m, nil
}

// loadDir parses one directory's .go files into up to two units (package
// proper + external test package).
func (m *Module) loadDir(dir, rel string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	byName := make(map[string]*Unit)
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg := f.Name.Name
		u := byName[pkg]
		if u == nil {
			u = &Unit{Rel: rel, Name: pkg}
			byName[pkg] = u
			names = append(names, pkg)
		}
		u.Files = append(u.Files, f)
		if !strings.HasSuffix(e.Name(), "_test.go") {
			u.nonTest = append(u.nonTest, f)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m.Units = append(m.Units, byName[n])
	}
	return nil
}

// unitFor returns the non-test unit at the module-relative path.
func (m *Module) unitFor(rel string) *Unit {
	for _, u := range m.Units {
		if u.Rel == rel && !strings.HasSuffix(u.Name, "_test") && len(u.nonTest) > 0 {
			return u
		}
	}
	return nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}
