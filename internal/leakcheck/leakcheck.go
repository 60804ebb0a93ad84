// Package leakcheck fails a test run whose module goroutines outlive the
// code that started them. A goroutine belongs to the module when a frame
// of its stack, or the go statement that created it, is in a package
// under modulePrefix; the runtime's and the testing package's own
// goroutines never are.
//
// A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// and a test that must see one call's goroutines gone checks around it:
//
//	check := leakcheck.Since(t)
//	_ = src.Stream(sink)
//	check()
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix is the import-path prefix of this module's packages.
const modulePrefix = "wearwild/"

// grace is how long a goroutine may take to exit after the code that
// started it returns: long enough for a closed listener, a fired timer or
// a drained channel to unpark it on a loaded CI host, short enough that a
// leak fails the run well inside its timeout.
const grace = 5 * time.Second

// Main runs the package's tests, then waits up to grace for every module
// goroutine but the caller's to exit. It prints each survivor's stack,
// with its "created by" line, and exits 1 if any is left; otherwise it
// exits with m.Run's code.
func Main(m *testing.M) {
	code := m.Run()
	if left := survivors(nil, grace); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d module goroutine(s) still running %v after the tests finished:\n\n%s\n",
			len(left), grace, strings.Join(left, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// Since notes the goroutines running now and returns a check that fails t
// (with t.Errorf, so it may run more than once per test) for every module
// goroutine started since that is still running grace after the check is
// called.
func Since(t testing.TB) func() {
	t.Helper()
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	return func() {
		t.Helper()
		if left := survivors(before, grace); len(left) > 0 {
			t.Errorf("%d module goroutine(s) still running %v later:\n\n%s", len(left), grace, strings.Join(left, "\n\n"))
		}
	}
}

// survivors polls until no module goroutine other than the caller's and
// those in skip is running, or wait has passed, and returns the stacks of
// the ones left.
func survivors(skip map[string]bool, wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for pause := time.Millisecond; ; pause = min(2*pause, 100*time.Millisecond) {
		var left []string
		for _, g := range goroutines()[1:] {
			if !skip[g.id] && strings.Contains(g.funcs, modulePrefix) {
				left = append(left, g.stack)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(pause)
	}
}

// goroutine is one stanza of a full stack dump.
type goroutine struct {
	id    string // the number in its "goroutine N [state]:" header
	stack string // the stanza as printed
	funcs string // its function and "created by" lines, without file paths
}

// goroutines parses runtime.Stack(all=true). The caller's goroutine is
// always first.
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, stanza := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		g := goroutine{stack: stanza}
		if f := strings.Fields(g.stack); len(f) > 1 {
			g.id = f[1]
		}
		// File lines are tab-indented; they name paths on the build host,
		// which may themselves contain the module name.
		var funcs strings.Builder
		for _, line := range strings.Split(g.stack, "\n") {
			if !strings.HasPrefix(line, "\t") {
				funcs.WriteString(line)
				funcs.WriteByte('\n')
			}
		}
		g.funcs = funcs.String()
		out = append(out, g)
	}
	return out
}
