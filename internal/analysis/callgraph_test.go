package analysis

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The call-graph tests run over testdata/callgraph: package alpha calls
// package beta statically, through an interface, and through a method
// value, which covers every resolution rule the interprocedural checks
// depend on.

func callgraphFixture(t *testing.T) *CallGraph {
	t.Helper()
	m, err := LoadTree(filepath.Join("testdata", "callgraph"), "internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	return m.CallGraph()
}

func mustNode(t *testing.T, g *CallGraph, id string) *Node {
	t.Helper()
	n := g.Nodes[id]
	if n == nil {
		var ids []string
		for _, o := range g.order {
			if strings.Contains(o.ID, "fixture") {
				ids = append(ids, o.ID)
			}
		}
		t.Fatalf("no node %q; fixture nodes:\n%s", id, strings.Join(ids, "\n"))
	}
	return n
}

// edgesTo returns n's out-edges landing on id.
func edgesTo(n *Node, id string) []Edge {
	var out []Edge
	for _, e := range n.Out {
		if e.Callee.ID == id {
			out = append(out, e)
		}
	}
	return out
}

func TestCallGraphStaticEdge(t *testing.T) {
	g := callgraphFixture(t)
	direct := mustNode(t, g, "wearwild/internal/fixture/alpha.Direct")
	es := edgesTo(direct, "wearwild/internal/fixture/beta.Helper")
	if len(es) != 1 {
		t.Fatalf("want 1 edge Direct→Helper, got %d", len(es))
	}
	if es[0].Dynamic {
		t.Error("a plain cross-package call must be a static edge")
	}
	helper := mustNode(t, g, "wearwild/internal/fixture/beta.Helper")
	if helper.Decl == nil || !helper.InModule {
		t.Error("the defining unit must own Helper's node metadata")
	}
}

// TestCallGraphInterfaceDispatch checks the over-approximation: a call
// through alpha.Doer keeps the interface-method edge AND fans out to
// every module method matching by name and signature — and ONLY those.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := callgraphFixture(t)
	use := mustNode(t, g, "wearwild/internal/fixture/alpha.UseIface")
	if es := edgesTo(use, "(wearwild/internal/fixture/alpha.Doer).Do"); len(es) != 1 || !es[0].Dynamic {
		t.Errorf("want 1 dynamic edge to the interface method, got %v", es)
	}
	if es := edgesTo(use, "(wearwild/internal/fixture/beta.Impl).Do"); len(es) != 1 || !es[0].Dynamic {
		t.Errorf("want 1 dynamic edge to the matching concrete method, got %v", es)
	}
	if es := edgesTo(use, "(wearwild/internal/fixture/beta.Other).Do"); len(es) != 0 {
		t.Errorf("signature mismatch must not resolve: got %v", es)
	}
}

// TestCallGraphMethodValue checks that taking v.Do as a value and
// calling it through a func variable both register edges to the method.
func TestCallGraphMethodValue(t *testing.T) {
	g := callgraphFixture(t)
	take := mustNode(t, g, "wearwild/internal/fixture/alpha.TakeValue")
	es := edgesTo(take, "(wearwild/internal/fixture/beta.Impl).Do")
	if len(es) < 2 {
		t.Fatalf("want the value reference and the func-variable call as edges, got %d", len(es))
	}
	for _, e := range es {
		if !e.Dynamic {
			t.Error("method-value edges must be marked dynamic")
		}
	}
}

func TestCallGraphReachability(t *testing.T) {
	g := callgraphFixture(t)
	direct := mustNode(t, g, "wearwild/internal/fixture/alpha.Direct")
	two := mustNode(t, g, "wearwild/internal/fixture/beta.two")
	use := mustNode(t, g, "wearwild/internal/fixture/alpha.UseIface")

	r := g.ReachableFrom([]*Node{direct})
	if !r.Contains(two) {
		t.Fatal("Direct must reach beta.two through Helper")
	}
	if r.Contains(use) {
		t.Error("Direct must not reach UseIface")
	}
	path := r.PathTo(two)
	if len(path) != 2 {
		t.Fatalf("want the 2-edge chain Direct→Helper→two, got %d edges", len(path))
	}
	if got := renderChain(g.Mod, path); got != "internal/fixture/alpha.Direct → internal/fixture/beta.Helper → internal/fixture/beta.two" {
		t.Errorf("rendered chain = %q", got)
	}
}

// TestWriteJSONStable runs the same module twice and demands
// byte-identical JSON — the property CI artifact diffing relies on.
func TestWriteJSONStable(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		m, err := LoadTree(filepath.Join("testdata", "detreach"), "internal")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := m.Run(DetreachAnalyzer)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Fatal("fixture produced no diagnostics to serialize")
		}
		if err := WriteJSON(&bufs[i], m.Root, diags); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("JSON output differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", bufs[0].String(), bufs[1].String())
	}
	out := bufs[0].String()
	for _, want := range []string{`"check": "detreach"`, `"file": "mnet/netproxy/netproxy.go"`, `"path": [`, `"func": "internal/study.Pipeline"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}
