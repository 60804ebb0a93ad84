package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The fixture tests are the golden-diagnostic suite: each check has a
// package under testdata/ whose source marks every expected finding with
// a trailing "// want <check>" comment. The harness runs one analyzer
// over the fixture and demands an exact match — every marked line must
// produce a diagnostic of that check, and no unmarked line may.

const wantMarker = "// want "

// expectations scans a fixture directory for want markers, keyed by
// (file base name, line).
func expectations(t *testing.T, dir string) map[string]map[int][]string {
	t.Helper()
	out := map[string]map[int][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, wantMarker)
			if !ok {
				continue
			}
			checks := strings.Fields(rest)
			if len(checks) == 0 {
				t.Fatalf("%s:%d: empty want marker", e.Name(), i+1)
			}
			byLine := out[e.Name()]
			if byLine == nil {
				byLine = map[int][]string{}
				out[e.Name()] = byLine
			}
			byLine[i+1] = append(byLine[i+1], checks...)
		}
	}
	return out
}

// runFixture loads one testdata package at the given module-relative
// path and runs the analyzers over it.
func runFixture(t *testing.T, dir, rel string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	m, err := LoadDir(filepath.Join("testdata", dir), rel)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := m.Run(as...)
	if err != nil {
		t.Fatalf("fixture %s failed to type-check: %v", dir, err)
	}
	return diags
}

// checkFixture asserts the analyzers' diagnostics over testdata/<dir>
// (the full catalog when none are named) match the want markers exactly,
// with sane positions and non-empty messages.
func checkFixture(t *testing.T, dir, rel string, as ...*Analyzer) {
	t.Helper()
	diags := runFixture(t, dir, rel, as...)
	want := expectations(t, filepath.Join("testdata", dir))

	got := map[string]map[int][]string{}
	for _, d := range diags {
		if d.Check == "" || d.Message == "" {
			t.Errorf("diagnostic with empty check or message: %+v", d)
		}
		if d.Pos.Line <= 0 || d.Pos.Column <= 0 {
			t.Errorf("diagnostic without a real position: %s", d)
		}
		base := filepath.Base(d.Pos.Filename)
		byLine := got[base]
		if byLine == nil {
			byLine = map[int][]string{}
			got[base] = byLine
		}
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d.Check)
	}

	type key struct {
		file string
		line int
	}
	keys := map[key]bool{}
	for f, byLine := range want {
		for l := range byLine {
			keys[key{f, l}] = true
		}
	}
	for f, byLine := range got {
		for l := range byLine {
			keys[key{f, l}] = true
		}
	}
	for k := range keys {
		w := append([]string(nil), want[k.file][k.line]...)
		g := append([]string(nil), got[k.file][k.line]...)
		sort.Strings(w)
		sort.Strings(g)
		if strings.Join(w, ",") != strings.Join(g, ",") {
			t.Errorf("%s:%d: want checks [%s], got [%s]", k.file, k.line,
				strings.Join(w, " "), strings.Join(g, " "))
		}
	}
}

// treeExpectations scans a fixture tree recursively for want markers,
// keyed by (slash-relative path, line) — the multi-directory analogue of
// expectations.
func treeExpectations(t *testing.T, root string) map[string]map[int][]string {
	t.Helper()
	out := map[string]map[int][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, wantMarker)
			if !ok {
				continue
			}
			checks := strings.Fields(rest)
			if len(checks) == 0 {
				t.Fatalf("%s:%d: empty want marker", rel, i+1)
			}
			byLine := out[rel]
			if byLine == nil {
				byLine = map[int][]string{}
				out[rel] = byLine
			}
			byLine[i+1] = append(byLine[i+1], checks...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runTree loads a multi-package fixture tree mounted at the given
// module path and runs the analyzers over the whole module.
func runTree(t *testing.T, dir, mount string, as ...*Analyzer) (*Module, []Diagnostic) {
	t.Helper()
	m, err := LoadTree(filepath.Join("testdata", dir), mount)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := m.Run(as...)
	if err != nil {
		t.Fatalf("fixture tree %s failed to type-check: %v", dir, err)
	}
	return m, diags
}

// checkTree asserts the analyzers' diagnostics over a fixture tree (the
// full catalog when none are named) match the want markers exactly, keyed by tree-relative path so same-named
// files in different packages stay distinct. It returns the diagnostics
// for follow-up assertions on messages and chains.
func checkTree(t *testing.T, dir, mount string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	_, diags := runTree(t, dir, mount, as...)
	want := treeExpectations(t, root)

	got := map[string]map[int][]string{}
	for _, d := range diags {
		if d.Check == "" || d.Message == "" {
			t.Errorf("diagnostic with empty check or message: %+v", d)
		}
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Errorf("diagnostic outside fixture tree: %s", d)
			continue
		}
		rel = filepath.ToSlash(rel)
		byLine := got[rel]
		if byLine == nil {
			byLine = map[int][]string{}
			got[rel] = byLine
		}
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d.Check)
	}

	type key struct {
		file string
		line int
	}
	keys := map[key]bool{}
	for f, byLine := range want {
		for l := range byLine {
			keys[key{f, l}] = true
		}
	}
	for f, byLine := range got {
		for l := range byLine {
			keys[key{f, l}] = true
		}
	}
	for k := range keys {
		w := append([]string(nil), want[k.file][k.line]...)
		g := append([]string(nil), got[k.file][k.line]...)
		sort.Strings(w)
		sort.Strings(g)
		if strings.Join(w, ",") != strings.Join(g, ",") {
			t.Errorf("%s:%d: want checks [%s], got [%s]", k.file, k.line,
				strings.Join(w, " "), strings.Join(g, " "))
		}
	}
	return diags
}

// TestGoldenWalltime pins detreach's wall-clock rule: every marked clock
// read is flagged exactly once, by the chain rule inside a determinism
// root and by the allowlist rule outside one, and the _test.go file's
// real-deadline poll stays silent in both.
func TestGoldenWalltime(t *testing.T) {
	for _, rel := range []string{"internal/gen/fixture", "internal/core/fixture"} {
		t.Run(rel, func(t *testing.T) { checkFixture(t, "walltime", rel, DetreachAnalyzer) })
	}
}

// TestGoldenWalltimeAllowlist reruns the same violating fixture at the
// clock's allowlisted module paths; the path, not the code, decides.
func TestGoldenWalltimeAllowlist(t *testing.T) {
	for _, rel := range []string{
		"cmd/fixture",
		"examples/demo",
		"internal/mnet/netproxy",
		"internal/mnet/replay",
	} {
		if diags := runFixture(t, "walltime", rel, DetreachAnalyzer); len(diags) != 0 {
			t.Errorf("rel %q: allowlisted package still flagged: %v", rel, diags)
		}
	}
}

// TestGoldenGlobalrand pins detreach's global-rand rule, inside and
// outside a determinism root; unlike the clock rule it checks test files
// too.
func TestGoldenGlobalrand(t *testing.T) {
	for _, rel := range []string{"internal/gen/fixture", "internal/core/fixture"} {
		t.Run(rel, func(t *testing.T) { checkFixture(t, "globalrand", rel, DetreachAnalyzer) })
	}
}

func TestGoldenGlobalrandAllowlist(t *testing.T) {
	if diags := runFixture(t, "globalrand", "internal/randx", DetreachAnalyzer); len(diags) != 0 {
		t.Errorf("internal/randx may construct rand streams, got: %v", diags)
	}
}

// TestGoldenWaitgroup pins ctxflow's WaitGroup placement rule: Add
// inside the spawned literal and a guarded literal with no Done are
// flagged, in non-test and test files alike, while the canonical
// Add-before-spawn worker and the fan-in closer (a body that waits on the
// group) stay silent.
func TestGoldenWaitgroup(t *testing.T) {
	checkFixture(t, "waitgroup", "internal/fixture", CtxflowAnalyzer)
}

// TestGoldenClosecheck pins errdrop's writer-path rule in _test.go
// files: a dropped Close/Flush on an io.Writer in a function returning
// error is flagged, while the acknowledged, read-only, no-error-result and
// non-writer drops stay silent there — and the same drops in the package's
// non-test file fall under the full rule.
func TestGoldenClosecheck(t *testing.T) {
	checkFixture(t, "closecheck", "internal/report/fixture", ErrdropAnalyzer)
}

// TestLoadTreeDetreach pins the interprocedural clock check: banned
// calls two hops from a root are flagged with the full chain, an
// identical clock read the roots cannot reach in an allowlisted package
// stays silent, an unreachable global-stream draw there is still
// flagged by the allowlist rule, without a chain, and an unreachable call
// through a func value that could be time.Now stays silent: the allowlist
// rule judges only sites that name the banned function.
func TestLoadTreeDetreach(t *testing.T) {
	diags := checkTree(t, "detreach", "internal", DetreachAnalyzer)
	var stamp, draw *Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "time.Now") {
			stamp = &diags[i]
		}
		if diags[i].Path == nil {
			draw = &diags[i]
		}
	}
	if draw == nil || !strings.Contains(draw.Message, "only internal/randx may use it directly") {
		t.Errorf("want the unreachable rand.Intn flagged by the allowlist rule, got %v", draw)
	}
	if stamp == nil {
		t.Fatal("no diagnostic for the time.Now leg")
	}
	if len(stamp.Path) < 2 {
		t.Errorf("want a >=2-hop chain on the time.Now finding, got %d steps: %v", len(stamp.Path), stamp.Path)
	}
	wantChain := "internal/study.Pipeline → internal/mnet/netproxy.Stamp → time.Now"
	if !strings.Contains(stamp.Message, wantChain) {
		t.Errorf("message missing chain %q:\n%s", wantChain, stamp.Message)
	}
	if !strings.Contains(stamp.Message, "determinism root internal/study.Pipeline") {
		t.Errorf("message missing the root attribution: %s", stamp.Message)
	}
}

// TestLoadTreeDeadline pins ctxflow's conn-I/O rule, the caller-path
// deadline analysis: own-guard and all-callers-guarded reads stay silent,
// an unguarded entry and a direction mismatch are flagged.
func TestLoadTreeDeadline(t *testing.T) {
	diags := checkTree(t, "deadline", "internal/mnet", CtxflowAnalyzer)
	foundEntry := false
	for _, d := range diags {
		if strings.Contains(d.Message, "unguarded entry internal/mnet/wire.Relay") {
			foundEntry = true
		}
	}
	if !foundEntry {
		t.Errorf("no diagnostic attributes the leak to wire.Relay: %v", diags)
	}
}

// TestLoadTreeLockheld pins the lock-discipline scan, including the
// cross-package blocking-reachable case and the clean poll/handoff
// idioms.
func TestLoadTreeLockheld(t *testing.T) {
	diags := checkTree(t, "lockheld", "internal/fixture", LockheldAnalyzer)
	foundChain := false
	for _, d := range diags {
		if strings.Contains(d.Message, "blockee.Park") && strings.Contains(d.Message, "channel operations") {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("no diagnostic explains the cross-package blocking chain: %v", diags)
	}
}

// TestLoadTreeErrdrop pins the discarded-error check over a two-package
// tree: bare and deferred drops are flagged, every sanctioned spelling
// (checked, _ =, _ = inside a deferred literal, exempt receiver) stays
// silent.
func TestLoadTreeErrdrop(t *testing.T) {
	diags := checkTree(t, "errdrop", "internal", ErrdropAnalyzer)
	for _, d := range diags {
		if !strings.Contains(d.Message, "assign to _") {
			t.Errorf("errdrop message lacks the opt-out hint: %q", d.Message)
		}
	}
}

// TestGoldenErrdropScope reruns the violating errdrop package mounted
// outside internal/ and cmd/: the full rule covers all non-test code, so
// examples and the module root are flagged exactly as internal/ is.
func TestGoldenErrdropScope(t *testing.T) {
	for _, rel := range []string{"examples/demo", ""} {
		t.Run("rel="+rel, func(t *testing.T) { checkFixture(t, "errdrop/emit", rel, ErrdropAnalyzer) })
	}
}

// TestGoldenOverlapDedupe pins one diagnostic per site under the full
// check catalog where two checks once both fired: a dropped writer
// Flush/Close (errdrop alone); a clock read plus a global-stream draw in
// a determinism root (detreach alone, not a second allowlist twin); and
// the unguarded conn reads and writes (one ctxflow finding per conn-I/O
// line).
func TestGoldenOverlapDedupe(t *testing.T) {
	checkFixture(t, "overlap", "internal/report/fixture")
	checkFixture(t, "detonce", "internal/gen/sim")
	checkTree(t, "deadline", "internal/mnet")
}

// TestGoldenMessages pins the exact user-facing wording of one
// representative diagnostic per check, so message regressions are caught
// and the remediation hint stays present.
func TestGoldenMessages(t *testing.T) {
	for _, tc := range []struct {
		dir, rel string
		a        *Analyzer
		contains string
	}{
		{"walltime", "internal/core/fixture", DetreachAnalyzer, "internal/simtime"},
		{"globalrand", "internal/core/fixture", DetreachAnalyzer, "internal/randx"},
		{"waitgroup", "internal/fixture", CtxflowAnalyzer, "before the go statement"},
		{"closecheck", "internal/report/fixture", ErrdropAnalyzer, "assign to _"},
	} {
		diags := runFixture(t, tc.dir, tc.rel, tc.a)
		if len(diags) == 0 {
			t.Errorf("%s: no diagnostics", tc.dir)
			continue
		}
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, tc.contains) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no diagnostic message contains %q; got %v", tc.dir, tc.contains, diags)
		}
	}
}

// TestWriteJSONMemoryChecks runs the collection-tier analyzers over their
// flagged trees twice and demands byte-identical JSON both times, with
// the check present in the emitted report — the emitter contract that
// TestWriteJSONStable pins for detreach, extended to every other
// module-level check.
func TestWriteJSONMemoryChecks(t *testing.T) {
	for _, tc := range []struct {
		dir, mount string
		a          *Analyzer
	}{
		{"lockheld", "internal/fixture", LockheldAnalyzer},
		{"ctxflow", "internal/mnet", CtxflowAnalyzer},
		{"chanbound", "internal/mnet", CtxflowAnalyzer},
	} {
		var bufs [2]bytes.Buffer
		for i := range bufs {
			m, err := LoadTree(filepath.Join("testdata", tc.dir), tc.mount)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := m.Run(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&bufs[i], m.Root, diags); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
			t.Errorf("%s: JSON output differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s",
				tc.dir, bufs[0].String(), bufs[1].String())
		}
		if !strings.Contains(bufs[0].String(), `"check": "`+tc.a.Name+`"`) {
			t.Errorf("%s: emitted JSON carries no %q finding:\n%s", tc.dir, tc.a.Name, bufs[0].String())
		}
	}
}

// TestLoadTreeCtxflow pins the conn-I/O rule inside spawned goroutines:
// the read in a spawned literal with no deadline anywhere is flagged with
// the rule's message, while a deadline the spawning function arms covers
// its literal's read and, through the go statement's call edge, the named
// helper one package over.
func TestLoadTreeCtxflow(t *testing.T) {
	diags := checkTree(t, "ctxflow", "internal/mnet", CtxflowAnalyzer)
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "c.Read can park forever") || !strings.Contains(d.Message, "on every caller path") {
			t.Errorf("the spawned conn read must carry the conn-I/O rule's message, got %q", d.Message)
		}
	}
}

// TestLoadTreeCtxflowClean runs the check over a relay whose spawner arms
// both deadlines: zero findings.
func TestLoadTreeCtxflowClean(t *testing.T) {
	if _, diags := runTree(t, "ctxflowclean", "internal/mnet", CtxflowAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeChanbound pins ctxflow's hot-loop send rule: the
// accept-loop push, the record-loop push, the buffered-but-undropped push
// and the nested-literal push all flag in the root package without a
// chain; the sink helper carries its chain from netproxy.Collect; and the
// select-default, shutdown-case, owned-pipeline and non-loop sends stay
// silent.
func TestLoadTreeChanbound(t *testing.T) {
	diags := checkTree(t, "chanbound", "internal/mnet", CtxflowAnalyzer)

	var chained, accept *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/sink/") {
			chained = d
		}
		if strings.Contains(d.Message, "accept hot loop") {
			accept = d
		}
		if !strings.Contains(d.Message, "unbounded send") || !strings.Contains(d.Message, "default drop path") {
			t.Errorf("chanbound message lacks the explanation or the remediation menu: %q", d.Message)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the sink helper; got %v", diags)
	}
	if !strings.Contains(chained.Message, "reached via internal/mnet/netproxy.Collect") {
		t.Errorf("helper finding must render the chain from the root: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("helper finding must carry Path steps for the text and JSON chains, got none")
	}
	if accept == nil {
		t.Fatalf("no diagnostic names the accept hot loop; got %v", diags)
	}
	if strings.Contains(accept.Message, "reached via") {
		t.Errorf("root-package finding must not render a chain: %q", accept.Message)
	}
}

// TestLoadTreeChanboundClean runs ctxflow over the three bounding
// disciplines — the owned pipeline DrainOwned among them — and a
// non-loop send: zero findings.
func TestLoadTreeChanboundClean(t *testing.T) {
	if _, diags := runTree(t, "chanboundclean", "internal/mnet", CtxflowAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}
