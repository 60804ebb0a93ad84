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

func TestGoldenMaporder(t *testing.T) {
	checkFixture(t, "maporder", "internal/core/fixture", MaporderAnalyzer)
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

// TestLoadTreeDetreachSuppress proves one //wearlint:ignore detreach on
// the root call site silences every finding whose chain passes through
// that line.
func TestLoadTreeDetreachSuppress(t *testing.T) {
	_, diags := runTree(t, "detreachsuppress", "internal", DetreachAnalyzer)
	if len(diags) != 0 {
		t.Errorf("root-site directive left %d finding(s): %v", len(diags), diags)
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

// TestGoldenSuppress drives the directive end to end: same-line,
// line-above and wildcard suppressions silence their findings, a
// directive naming the wrong check does not, and a malformed directive
// is itself reported under the unsuppressable "ignore" pseudo-check.
func TestGoldenSuppress(t *testing.T) {
	checkFixtureMessages(t)
	diags := runFixture(t, "suppress", "internal/fixture", DetreachAnalyzer)

	src, err := os.ReadFile(filepath.Join("testdata", "suppress", "suppress.go"))
	if err != nil {
		t.Fatal(err)
	}
	malformedLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(line) == ignorePrefix {
			malformedLine = i + 1
		}
	}
	if malformedLine == 0 {
		t.Fatal("fixture lost its bare //wearlint:ignore directive")
	}

	var detreach, ignore []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case "detreach":
			detreach = append(detreach, d)
		case "ignore":
			ignore = append(ignore, d)
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	if len(detreach) != 1 {
		t.Fatalf("want exactly 1 surviving detreach diagnostic (wrong-check directive), got %d: %v", len(detreach), detreach)
	}
	if len(ignore) != 1 {
		t.Fatalf("want exactly 1 malformed-directive diagnostic, got %d: %v", len(ignore), ignore)
	}
	if ignore[0].Pos.Line != malformedLine {
		t.Errorf("malformed directive reported at line %d, directive is at %d", ignore[0].Pos.Line, malformedLine)
	}
	if !strings.Contains(ignore[0].Message, "malformed suppression") {
		t.Errorf("malformed-directive message = %q", ignore[0].Message)
	}
}

// TestLoadTreeShardpure pins the callback-purity check over the seeded
// tree: every violation class is flagged, the sanctioned patterns stay
// silent, and wrapped registrations carry the forwarding chain.
func TestLoadTreeShardpure(t *testing.T) {
	diags := checkTree(t, "shardpure", "internal", ShardpureAnalyzer)

	// Wrapped registrations must render the hop(s) in the message and
	// carry them as Path steps the suppression filter can walk.
	var wrapped, wrapped2 *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "internal/hot.Wrapped → internal/wrap.Go)") {
			wrapped = d
		}
		if strings.Contains(d.Message, "internal/hot.Wrapped2 → internal/wrap.Go2") {
			wrapped2 = d
		}
	}
	if wrapped == nil {
		t.Fatalf("no diagnostic renders the one-hop chain Wrapped → wrap.Go; got %v", diags)
	}
	if len(wrapped.Path) < 2 {
		t.Errorf("one-hop registration should carry ≥2 chain steps (registration + forward), got %d: %v", len(wrapped.Path), wrapped.Path)
	}
	if wrapped2 == nil {
		t.Fatalf("no diagnostic renders the two-hop chain Wrapped2 → wrap.Go2; got %v", diags)
	}
	if len(wrapped2.Path) != 3 {
		t.Errorf("two-hop registration should carry 3 chain steps, got %d: %v", len(wrapped2.Path), wrapped2.Path)
	}
	for _, want := range []string{"writes captured map", "appends to captured slice", "accumulates into captured", "not derived from the callback's own parameters"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no shardpure diagnostic explains %q", want)
		}
	}
}

// TestLoadTreeShardpureClean runs the check over a tree that uses the
// runtime only through the sanctioned patterns: zero findings.
func TestLoadTreeShardpureClean(t *testing.T) {
	if _, diags := runTree(t, "shardpureclean", "internal", ShardpureAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeFloatfold pins both halves of the float-fold check: the
// map-range fold carries the sortx.Keys remediation, and the
// parallel-reachable receiver fold carries a call chain.
func TestLoadTreeFloatfold(t *testing.T) {
	diags := checkTree(t, "floatfold", "internal", FloatfoldAnalyzer)

	var mapFold, observe *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "range over map m") && mapFold == nil {
			mapFold = d
		}
		if strings.Contains(d.Message, "mt.total") {
			observe = d
		}
	}
	if mapFold == nil {
		t.Fatalf("no part-A diagnostic over the map range; got %v", diags)
	}
	if !strings.Contains(mapFold.Message, "sortx.Keys") {
		t.Errorf("map-range fold message lacks the sortx.Keys remediation: %q", mapFold.Message)
	}
	if observe == nil {
		t.Fatalf("no part-B diagnostic for the parallel-reachable receiver fold; got %v", diags)
	}
	if !strings.Contains(observe.Message, "runs on shard workers") {
		t.Errorf("parallel-path message lacks the shard-worker explanation: %q", observe.Message)
	}
	if len(observe.Path) == 0 {
		t.Errorf("parallel-path diagnostic must carry the chain from the registration site, got none")
	}
}

// TestLoadTreeFloatfoldClean runs the check over integer folds,
// sorted-key folds and fixed-slot parallel sections: zero findings.
func TestLoadTreeFloatfoldClean(t *testing.T) {
	if _, diags := runTree(t, "floatfoldclean", "internal", FloatfoldAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeErrdrop pins the discarded-error check over a two-package
// tree: bare and deferred drops are flagged, every sanctioned spelling
// (checked, _ =, directive, exempt receiver) stays silent.
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
// a determinism root (detreach alone, not a second allowlist twin); the
// materialising and slab-header appends the allocation rule also judges
// (exactly two membound findings); and the unguarded conn reads and
// writes (one ctxflow finding per conn-I/O line).
func TestGoldenOverlapDedupe(t *testing.T) {
	checkFixture(t, "overlap", "internal/report/fixture")
	checkFixture(t, "detonce", "internal/gen/sim")
	checkTree(t, "allocoverlap", "internal")
	checkTree(t, "deadline", "internal/mnet")
}

// TestWriteJSONSuppressed proves suppression happens before emission:
// findings silenced by //wearlint:ignore never reach the JSON output,
// and the output is byte-stable across identical runs.
func TestWriteJSONSuppressed(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		m, err := LoadDir(filepath.Join("testdata", "suppress"), "internal/fixture")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := m.Run(DetreachAnalyzer)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&bufs[i], m.Root, diags); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("JSON output differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", bufs[0].String(), bufs[1].String())
	}
	out := bufs[0].String()
	if got := strings.Count(out, `"check": "detreach"`); got != 1 {
		t.Errorf("want exactly the 1 unsuppressed detreach finding in JSON, got %d:\n%s", got, out)
	}
	// The fixture's suppressed violations sit on lines 9, 15 and 20; none
	// may surface in the emitted JSON.
	for _, line := range []string{`"line": 9,`, `"line": 15,`, `"line": 20,`} {
		if strings.Contains(out, line) {
			t.Errorf("suppressed finding leaked into JSON (%s):\n%s", line, out)
		}
	}
}

// checkFixtureMessages pins the exact user-facing wording of one
// representative diagnostic per check, so message regressions are caught
// and the remediation hint stays present.
func checkFixtureMessages(t *testing.T) {
	t.Helper()
	for _, tc := range []struct {
		dir, rel string
		a        *Analyzer
		contains string
	}{
		{"walltime", "internal/core/fixture", DetreachAnalyzer, "internal/simtime"},
		{"globalrand", "internal/core/fixture", DetreachAnalyzer, "internal/randx"},
		{"maporder", "internal/core/fixture", MaporderAnalyzer, "collect the keys, sort them"},
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

// TestLoadTreeGrowbound pins membound's growth rule over the
// seeded tree: both growth spellings flag in the root package without
// a chain, the helper one hop below the root carries its chain, the
// reachable-but-exempt generator and the exempt stats package stay
// silent, the returned-regroup and channel-drain shapes flag despite
// the bounded-regroup rule, and every sanctioned bounded shape passes.
func TestLoadTreeGrowbound(t *testing.T) {
	diags := checkTree(t, "growbound", "internal", MemboundAnalyzer)

	var chained, rooted *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Pos.Filename, "helper") {
			chained = d
		}
		if strings.Contains(d.Pos.Filename, "proxylog") {
			rooted = d
		}
		if !strings.Contains(d.Message, "DESIGN.md §7") {
			t.Errorf("growbound message lacks the bounded-accumulator pointer: %q", d.Message)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the helper package; got %v", diags)
	}
	if !strings.Contains(chained.Message, "reached via internal/core.Study") {
		t.Errorf("helper finding must render the chain from the root: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("helper finding must carry Path steps for chain-aware suppression, got none")
	}
	if rooted == nil {
		t.Fatalf("no diagnostic for the decoder-idiom loop in the root codec; got %v", diags)
	}
	if strings.Contains(rooted.Message, "reached via") {
		t.Errorf("root-package finding must not render a chain: %q", rooted.Message)
	}
}

// TestLoadTreeGrowboundClean runs the check over the all-bounded tree:
// zero findings.
func TestLoadTreeGrowboundClean(t *testing.T) {
	if _, diags := runTree(t, "growboundclean", "internal", MemboundAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestGoldenRetain pins membound's slab-retention rule: both reuse markers
// arm the slab, every escape spelling (return, two-hop alias return,
// field store, map store, header append) flags, and the copy-first
// idioms stay silent.
func TestGoldenRetain(t *testing.T) {
	checkFixture(t, "retain", "internal/mnet/codec", MemboundAnalyzer)
	diags := runFixture(t, "retain", "internal/mnet/codec", MemboundAnalyzer)
	for _, d := range diags {
		if !strings.Contains(d.Message, "copy first") {
			t.Errorf("retain message lacks the copy-first remediation: %q", d.Message)
		}
	}
}

// TestGoldenRetainClean runs the check over the copying decoder: zero
// findings.
func TestGoldenRetainClean(t *testing.T) {
	if diags := runFixture(t, "retainclean", "internal/mnet/codec", MemboundAnalyzer); len(diags) != 0 {
		t.Errorf("clean fixture flagged: %v", diags)
	}
}

// TestLoadTreeGoleak pins ctxflow's bounded-exit rule outside the
// collection tier: the literal, named (with spawn step), bodiless-leaf,
// blocking-callee, ticker-loop, ticker-select and poll-and-sleep spawns
// flag; the exit disciplines, the dynamic spawn and the non-blocking
// body stay silent; and a guarded spawn with no Done is reported once,
// by the placement rule.
func TestLoadTreeGoleak(t *testing.T) {
	diags := checkTree(t, "goleak", "internal/mnet", CtxflowAnalyzer)

	var named, viaCall, leaf, guarded *Diagnostic
	for i := range diags {
		d := &diags[i]
		switch {
		case strings.Contains(d.Message, "internal/mnet/pipe.Pump,"):
			viaCall = d
		case strings.Contains(d.Message, "internal/mnet/pipe.Pump"):
			named = d
		case strings.Contains(d.Message, "blocks outright"):
			leaf = d
		case strings.Contains(d.Message, "never calls wg.Done"):
			guarded = d
			continue
		}
		if !strings.Contains(d.Message, "WaitGroup") {
			t.Errorf("bounded-exit message lacks the remediation menu: %q", d.Message)
		}
	}
	if named == nil {
		t.Fatalf("no diagnostic names the spawned worker pipe.Pump; got %v", diags)
	}
	if len(named.Path) == 0 {
		t.Errorf("named-spawn finding must carry the spawn step, got none")
	}
	if viaCall == nil {
		t.Errorf("no diagnostic attributes blocking to the call into pipe.Pump; got %v", diags)
	}
	if leaf == nil {
		t.Errorf("no diagnostic for the bodiless blocking leaf (wg.Wait); got %v", diags)
	}
	if guarded == nil {
		t.Errorf("no placement diagnostic for the guarded spawn with no Done; got %v", diags)
	}
}

// TestGoldenGoleakScope remounts the flagged literal spawn outside the
// bounded-exit rule's packages: the scope is the module path, so it
// stays silent.
func TestGoldenGoleakScope(t *testing.T) {
	if diags := runFixture(t, "goleak/litspawn", "internal/study/fixture", CtxflowAnalyzer); len(diags) != 0 {
		t.Errorf("bounded-exit rule fired outside its package scope: %v", diags)
	}
}

// TestLoadTreeGoleakClean runs the check over the worker-pool idiom
// using every sanctioned discipline, the fan-in closer included: zero
// findings.
func TestLoadTreeGoleakClean(t *testing.T) {
	if _, diags := runTree(t, "goleakclean", "internal/shard", CtxflowAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestGoldenCtxflowTier pins the collection tier: a bodiless blocking
// target the walk cannot enter (go wg.Wait()) and a spawned path that
// parks on a leaf the walk does not model (wg.Wait in a literal,
// time.Sleep one call down) are flagged at the go statement unless they
// observe a stop channel; a literal spawn the walk flags inside is not
// reported again at the go statement; the dial-reaper shape stays
// silent; and a send in a spawned accept loop keeps the hot-loop send
// rule's message.
func TestGoldenCtxflowTier(t *testing.T) {
	checkFixture(t, "ctxflowtier", "internal/mnet/netproxy", CtxflowAnalyzer)
	found := false
	for _, d := range runFixture(t, "ctxflowtier", "internal/mnet/netproxy", CtxflowAnalyzer) {
		if strings.Contains(d.Message, "conns <-") {
			found = true
			if !strings.HasPrefix(d.Message, "unbounded send: conns <- … inside an accept hot loop") {
				t.Errorf("the spawned accept-loop send must keep the hot-loop send message, got %q", d.Message)
			}
		}
	}
	if !found {
		t.Errorf("no finding on the spawned accept-loop send")
	}
}

// TestLoadTreeMergeable pins the accumulator audit: bare floats,
// anonymous types, a float-fielded Merge-less type and a float-folding
// Merge all flag, the wrapped registration carries its two-step chain,
// and the exact merges (ints, maps, slices, int-Merge, stats types,
// field-wise Merge-less structs) pass.
func TestLoadTreeMergeable(t *testing.T) {
	diags := checkTree(t, "mergeable", "internal", MergeableAnalyzer)

	var wrapped, floatMerge *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "internal/wrap.Go") {
			wrapped = d
		}
		if strings.Contains(d.Message, "acc.Merge accumulates floats") {
			floatMerge = d
		}
		if !strings.Contains(d.Message, "DESIGN.md §7") {
			t.Errorf("mergeable message lacks the merge-rules pointer: %q", d.Message)
		}
	}
	if wrapped == nil {
		t.Fatalf("no diagnostic renders the forwarding chain through wrap.Go; got %v", diags)
	}
	if len(wrapped.Path) < 2 {
		t.Errorf("wrapped registration should carry >=2 chain steps, got %d: %v", len(wrapped.Path), wrapped.Path)
	}
	if floatMerge == nil {
		t.Errorf("no diagnostic pins the float fold inside acc.Merge; got %v", diags)
	}
}

// TestLoadTreeMergeableClean runs the audit over exact merges only:
// zero findings.
func TestLoadTreeMergeableClean(t *testing.T) {
	if _, diags := runTree(t, "mergeableclean", "internal", MergeableAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestWriteJSONMemoryChecks runs each memory- and generator-discipline
// analyzer over its flagged tree twice and demands byte-identical JSON
// both times, with the check present in the emitted report — the
// emitter contract extended to every module-level check.
func TestWriteJSONMemoryChecks(t *testing.T) {
	for _, tc := range []struct {
		dir, mount string
		a          *Analyzer
	}{
		{"growbound", "internal", MemboundAnalyzer},
		{"retain", "internal/mnet/codec", MemboundAnalyzer},
		{"goleak", "internal/mnet", CtxflowAnalyzer},
		{"mergeable", "internal", MergeableAnalyzer},
		{"randsplit", "internal", RandsplitAnalyzer},
		{"allochot", "internal", MemboundAnalyzer},
		{"sinkretain", "internal", MemboundAnalyzer},
		{"ctxflow", "internal/mnet", CtxflowAnalyzer},
		{"atomicmix", "internal", AtomicmixAnalyzer},
		{"chanbound", "internal/mnet", CtxflowAnalyzer},
		{"tickstop", "cmd", TickstopAnalyzer},
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

// TestLoadTreeRandsplit pins all four stream-independence rules over
// the seeded tree: a shard callback drawing from a captured parent, one
// parent fanned into two go statements, a loop-spawned capture, a
// parent drawn after its child was handed off, and every key-discipline
// violation (loop counter, map-range variable, non-constant label) —
// while the Split-per-worker and stable-identity spellings stay silent
// and the sub-package finding carries its chain from the gen root.
func TestLoadTreeRandsplit(t *testing.T) {
	diags := checkTree(t, "randsplit", "internal", RandsplitAnalyzer)

	var capture, fan, loopSpawn, order, label, chained *Diagnostic
	for i := range diags {
		d := &diags[i]
		switch {
		case strings.Contains(d.Message, "rng capture"):
			capture = d
		case strings.Contains(d.Message, "spawned inside a loop"):
			loopSpawn = d
		case strings.Contains(d.Message, "rng fan-out"):
			fan = d
		case strings.Contains(d.Message, "rng order"):
			order = d
		case strings.Contains(d.Message, "is not a constant"):
			label = d
		}
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/sub/") {
			chained = d
		}
	}
	if capture == nil {
		t.Errorf("no rng-capture diagnostic for the shard callback; got %v", diags)
	}
	if fan == nil {
		t.Errorf("no rng fan-out diagnostic for the two-goroutine flow; got %v", diags)
	}
	if loopSpawn == nil {
		t.Errorf("no diagnostic for the loop-spawned goroutine capture; got %v", diags)
	}
	if order == nil {
		t.Errorf("no rng-order diagnostic for the draw after handoff; got %v", diags)
	}
	if label == nil {
		t.Errorf("no diagnostic for the non-constant Split label; got %v", diags)
	}
	for _, role := range []string{"loop counter", "map-range variable"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, role) {
				found = true
			}
		}
		if !found {
			t.Errorf("no key-discipline diagnostic names the %s role", role)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the sub package one hop below the root; got %v", diags)
	}
	if !strings.Contains(chained.Message, "reached via internal/gen.Stable") {
		t.Errorf("sub finding must render the chain from the gen root: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("sub finding must carry Path steps for chain-aware suppression, got none")
	}
}

// TestLoadTreeRandsplitClean runs the check over a tree that splits by
// stable identity and hands every worker its own child: zero findings.
func TestLoadTreeRandsplitClean(t *testing.T) {
	if _, diags := runTree(t, "randsplitclean", "internal", RandsplitAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeAllochot pins membound's hot-path allocation rule: every
// per-iteration shape in the sim root flags (pointer and container
// literals, cap-unguarded append, bare make, Sprintf, string
// conversion, closure), the helper one hop below carries its chain, the
// reachable-but-exempt population package stays silent, and every reuse
// discipline passes.
func TestLoadTreeAllochot(t *testing.T) {
	diags := checkTree(t, "allochot", "internal", MemboundAnalyzer)

	var chained *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/help/") {
			chained = d
		}
		if !strings.Contains(d.Message, "ROADMAP item 2") {
			t.Errorf("allochot message lacks the worklist pointer: %q", d.Message)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the helper package; got %v", diags)
	}
	if !strings.Contains(chained.Message, "reached via internal/gen/sim.Generate") {
		t.Errorf("helper finding must render the chain from the sim root: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("helper finding must carry Path steps for chain-aware suppression, got none")
	}
}

// TestLoadTreeAllochotClean runs the check over the all-reuse tree:
// zero findings.
func TestLoadTreeAllochotClean(t *testing.T) {
	if _, diags := runTree(t, "allochotclean", "internal", MemboundAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeSinkretain pins membound's Sink-retention rule: every
// escape spelling on the record parameter flags (field store, map
// insert, append, channel send, goroutine capture), the retention one
// call below the method carries the forwarding chain, and the scalar
// UserDone parameter stays silent everywhere.
func TestLoadTreeSinkretain(t *testing.T) {
	diags := checkTree(t, "sinkretain", "internal", MemboundAnalyzer)

	for _, verb := range []string{
		"stored into state that outlives the call",
		"inserted into an outliving map",
		"appended into outliving storage",
		"sent on a channel",
		"captured by a goroutine",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, verb) {
				found = true
			}
		}
		if !found {
			t.Errorf("no sinkretain diagnostic says the record is %q; got %v", verb, diags)
		}
	}
	var chained *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "fwdSink") {
			chained = d
		}
		if !strings.Contains(d.Message, "DESIGN.md §8") {
			t.Errorf("sinkretain message lacks the contract pointer: %q", d.Message)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic carries the forwarding chain through fwdSink.Proxy; got %v", diags)
	}
	if !strings.Contains(chained.Message, "vault).put") {
		t.Errorf("forwarded finding must name the terminal callee vault.put: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("forwarded finding must carry Path steps for chain-aware suppression, got none")
	}
}

// TestLoadTreeSinkretainClean runs the check over the folding sink and
// the half-contract keeper: zero findings.
func TestLoadTreeSinkretainClean(t *testing.T) {
	if _, diags := runTree(t, "sinkretainclean", "internal", MemboundAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestGoldenAllocOverlapDedupe pins membound's one verdict per line:
// the allocation rule flags both append sites of the overlap tree, and
// the line goes to the rule ranked first — growth on the materialising
// append, retention on the slab-header append.
func TestGoldenAllocOverlapDedupe(t *testing.T) {
	m, diags := runTree(t, "allocoverlap", "internal", MemboundAnalyzer)
	verdicts := map[int]string{}
	for _, d := range diags {
		verdicts[d.Pos.Line], _, _ = strings.Cut(d.Message, ":")
	}
	want := map[int]string{14: "unbounded growth", 26: "slab retention"}
	if len(verdicts) != len(want) || len(diags) != len(want) {
		t.Fatalf("want one verdict on each of lines 14 and 26, got %v", diags)
	}
	for line, kind := range want {
		if verdicts[line] != kind {
			t.Errorf("line %d: verdict %q, want %q", line, verdicts[line], kind)
		}
	}

	mb := newMembound(&ModulePass{Mod: m, Graph: m.CallGraph()})
	mb.collect()
	alloc := map[int]bool{}
	for _, f := range mb.found {
		if f.rule == memAlloc {
			alloc[m.Fset.Position(f.pos).Line] = true
		}
	}
	if !alloc[14] || !alloc[26] {
		t.Errorf("the allocation rule must flag both append sites before the line verdict, got lines %v", alloc)
	}
}

// TestLoadTreeCtxflow pins the cancellation check over the seeded tree:
// the plain receive, plain send, bare select, channel range, ungated
// accept loop and unguarded conn read all flag inside their spawned
// bodies, the conn read with the conn-I/O rule's message; the named
// spawn into sink.Drain carries the spawn chain; and
// every discipline — done receive, buffered handoff, semaphore token,
// joined worker, shutdown select, gated accept, spawner-armed deadline
// (local and through the chain) and the dynamic spawn — stays silent.
func TestLoadTreeCtxflow(t *testing.T) {
	diags := checkTree(t, "ctxflow", "internal/mnet", CtxflowAnalyzer)

	var chained, accept, conn *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "on every caller path") {
			conn = d
			continue // the conn-I/O rule's verdict on a site the walk reaches
		}
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/sink/") {
			chained = d
		}
		if strings.Contains(d.Message, "accept loop is not cancellable") {
			accept = d
		}
		if !strings.Contains(d.Message, "on goroutine path") {
			t.Errorf("ctxflow message lacks the spawn-path rendering: %q", d.Message)
		}
		if !strings.Contains(d.Message, "DESIGN.md §5") {
			t.Errorf("ctxflow message lacks the catalog pointer: %q", d.Message)
		}
		if len(d.Path) == 0 {
			t.Errorf("ctxflow finding must carry the spawn step for chain-aware suppression: %s", d)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the spawned helper sink.Drain; got %v", diags)
	}
	if !strings.Contains(chained.Message, "netproxy.SpawnWorker → internal/mnet/sink.Drain") {
		t.Errorf("helper finding must render the spawn chain: %q", chained.Message)
	}
	if accept == nil {
		t.Fatalf("no diagnostic for the ungated accept loop; got %v", diags)
	}
	if !strings.Contains(accept.Message, "done/stop signal") {
		t.Errorf("accept finding must name the missing gate: %q", accept.Message)
	}
	if conn == nil || !strings.HasPrefix(conn.Message, "c.Read can park forever") {
		t.Errorf("the spawned conn read must keep the conn-I/O rule's message, got %v", conn)
	}
}

// TestLoadTreeCtxflowClean runs the check over the all-disciplined pool,
// gated accept, guarded relay and buffered dial: zero findings.
func TestLoadTreeCtxflowClean(t *testing.T) {
	if _, diags := runTree(t, "ctxflowclean", "internal/mnet", CtxflowAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeAtomicmix pins the mixed-access check: both plain reads in
// the snapshot, the plain reset write, and the cross-package plain read
// of the hot counter all flag with the arming atomic site named; the
// mutex-guarded and uniformly atomic paths stay silent.
func TestLoadTreeAtomicmix(t *testing.T) {
	diags := checkTree(t, "atomicmix", "internal", AtomicmixAnalyzer)

	var crossPkg, written *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/report/") {
			crossPkg = d
		}
		if strings.Contains(d.Message, "written plainly") {
			written = d
		}
		if !strings.Contains(d.Message, "accessed via atomic.") {
			t.Errorf("atomicmix message must cite the arming atomic site: %q", d.Message)
		}
		if !strings.Contains(d.Message, "counters.go:") {
			t.Errorf("atomicmix message must position the atomic site: %q", d.Message)
		}
	}
	if crossPkg == nil {
		t.Fatalf("no diagnostic for the cross-package plain read of Ops; got %v", diags)
	}
	if written == nil {
		t.Fatalf("no diagnostic distinguishes the plain write in Reset; got %v", diags)
	}
}

// TestLoadTreeAtomicmixClean runs the check over typed wrappers, uniform
// old-API access and the locked-snapshot hybrid: zero findings.
func TestLoadTreeAtomicmixClean(t *testing.T) {
	if _, diags := runTree(t, "atomicmixclean", "internal", AtomicmixAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}

// TestLoadTreeChanbound pins ctxflow's hot-loop send rule: the
// accept-loop push, the record-loop push, the buffered-but-undropped push
// and the nested-literal push all flag in the root package without a
// chain; the sink helper carries its chain from netproxy.Collect; and the
// select-default, shutdown-case, owned-pipeline and non-loop sends stay
// silent. The owned pipeline's spawned consumer is the walk's to judge,
// and it flags the consumer's channel range.
func TestLoadTreeChanbound(t *testing.T) {
	diags := checkTree(t, "chanbound", "internal/mnet", CtxflowAnalyzer)

	var chained, accept *Diagnostic
	for i := range diags {
		d := &diags[i]
		if !strings.Contains(d.Message, "unbounded send") {
			continue // the walk's verdict on the owned pipeline's consumer
		}
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/sink/") {
			chained = d
		}
		if strings.Contains(d.Message, "accept hot loop") {
			accept = d
		}
		if !strings.Contains(d.Message, "default drop path") {
			t.Errorf("chanbound message lacks the remediation menu: %q", d.Message)
		}
	}
	if chained == nil {
		t.Fatalf("no diagnostic for the sink helper; got %v", diags)
	}
	if !strings.Contains(chained.Message, "reached via internal/mnet/netproxy.Collect") {
		t.Errorf("helper finding must render the chain from the root: %q", chained.Message)
	}
	if len(chained.Path) == 0 {
		t.Errorf("helper finding must carry Path steps for chain-aware suppression, got none")
	}
	if accept == nil {
		t.Fatalf("no diagnostic names the accept hot loop; got %v", diags)
	}
	if strings.Contains(accept.Message, "reached via") {
		t.Errorf("root-package finding must not render a chain: %q", accept.Message)
	}
}

// TestLoadTreeChanboundClean runs ctxflow over the three bounding
// disciplines and a non-loop send: no send is flagged. The one finding is
// the walk's, on the owned pipeline's consumer range, as in
// TestLoadTreeChanbound.
func TestLoadTreeChanboundClean(t *testing.T) {
	for _, d := range checkTree(t, "chanboundclean", "internal/mnet", CtxflowAnalyzer) {
		if strings.Contains(d.Message, "unbounded send") {
			t.Errorf("clean tree flagged a send: %s", d)
		}
	}
}

// TestLoadTreeTickstop pins the timer-lifecycle check: the never-stopped
// ticker, the early return that escapes a plain Stop, the per-iteration
// time.After/time.Tick and the unstopped closure-local ticker all flag;
// defer-Stop in both spellings, every handoff class, AfterFunc and the
// time.Time.After method stay silent. The tree mounts under cmd/, where
// the clock is allowed; mounted outside the clock allowlist it yields no
// tickstop finding, since detreach already owns every timer there.
func TestLoadTreeTickstop(t *testing.T) {
	diags := checkTree(t, "tickstop", "cmd", TickstopAnalyzer)
	if _, outside := runTree(t, "tickstop", "internal", TickstopAnalyzer); len(outside) != 0 {
		t.Errorf("tickstop judged a package outside the clock allowlist: %v", outside)
	}

	var never, escape *Diagnostic
	for i := range diags {
		d := &diags[i]
		if strings.Contains(d.Message, "never stopped") {
			never = d
		}
		if strings.Contains(d.Message, "leaks on this return path") {
			escape = d
		}
		if !strings.Contains(d.Message, "DESIGN.md §5") {
			t.Errorf("tickstop message lacks the catalog pointer: %q", d.Message)
		}
	}
	if never == nil {
		t.Fatalf("no diagnostic for the never-stopped ticker; got %v", diags)
	}
	if !strings.Contains(never.Message, "defer t.Stop()") {
		t.Errorf("never-stopped finding must name the defer remediation: %q", never.Message)
	}
	if escape == nil {
		t.Fatalf("no diagnostic for the return escaping the plain Stop; got %v", diags)
	}
}

// TestLoadTreeTickstopClean runs the check over every sanctioned
// lifecycle: zero findings.
func TestLoadTreeTickstopClean(t *testing.T) {
	if _, diags := runTree(t, "tickstopclean", "cmd", TickstopAnalyzer); len(diags) != 0 {
		t.Errorf("clean tree flagged: %v", diags)
	}
}
