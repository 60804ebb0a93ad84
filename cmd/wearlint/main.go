// Command wearlint runs wearwild's determinism and concurrency checks
// over the module. It is the CI lint gate and the fast local loop:
//
//	go run ./cmd/wearlint ./...
//	go run ./cmd/wearlint ./internal/core
//	go run ./cmd/wearlint -checks randsplit,membound ./...
//	go run ./cmd/wearlint -format json ./...
//	go run ./cmd/wearlint -json-out wearlint.json ./...
//
// Text diagnostics print as file:line:col: check: message (call-graph
// checks add the offending chain, one indented line per hop) and a
// non-zero exit reports findings. -format json emits a byte-stable JSON
// array for CI problem-matchers and artifacts; -json-out writes that
// same array to a file alongside the primary output, so one
// load+typecheck serves both the human gate and the machine artifact.
// Suppress a finding with a justified comment on the flagged line — or,
// for chain-carrying diagnostics, on any call site along the chain:
//
//	//wearlint:ignore <check> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wearwild/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the available checks and exit")
	suppressions := flag.Bool("suppressions", false, "emit the module's //wearlint:ignore inventory as JSON and exit")
	checks := flag.String("checks", "", "comma-separated allow-list of checks to run (default: all; see -list)")
	format := flag.String("format", "text", "output format: text or json")
	jsonOut := flag.String("json-out", "", "also write the JSON report to this file, sharing one load+typecheck with the primary output")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: wearlint [-list] [-suppressions] [-checks a,b] [-format text|json] [-json-out file] [packages]\n\npackages may be ./... (default) or module directories like ./internal/core\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.DefaultAnalyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *suppressions {
		if err := runSuppressions(); err != nil {
			fmt.Fprintln(os.Stderr, "wearlint:", err)
			os.Exit(2)
		}
		return
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "wearlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	selected, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wearlint:", err)
		os.Exit(2)
	}
	if err := run(flag.Args(), selected, *format, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "wearlint:", err)
		os.Exit(2)
	}
}

// selectChecks resolves the -checks allow-list against the catalog. An
// unknown name is an error, not a silently empty run.
func selectChecks(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return nil, nil // nil means every check
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.DefaultAnalyzers() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		a := byName[name]
		if a == nil {
			return nil, fmt.Errorf("unknown check %q (run wearlint -list for the catalog)", name)
		}
		seen[name] = true
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks %q selects no checks", spec)
	}
	return out, nil
}

// runSuppressions scans the module's //wearlint:ignore directives and
// writes the byte-stable JSON inventory to stdout. Only parsed comments
// are consulted — no type-checking, so the scan is fast enough for the
// CI diff gate against the committed LINT_SUPPRESSIONS.json.
func runSuppressions() error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		return err
	}
	return analysis.WriteSuppressionsJSON(os.Stdout, mod.Suppressions())
}

func run(args []string, selected []*analysis.Analyzer, format, jsonOut string) error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		return err
	}
	diags, err := mod.Run(selected...)
	if err != nil {
		return err
	}
	diags = filterArgs(diags, root, args)
	// The JSON side-channel writes before the findings gate below, so CI
	// uploads a complete artifact even on a failing run.
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := analysis.WriteJSON(f, root, diags); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if format == "json" {
		if err := analysis.WriteJSON(os.Stdout, root, diags); err != nil {
			return err
		}
	} else {
		printText(diags, root)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wearlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	return nil
}

// printText renders diagnostics for humans and for the CI
// problem-matcher: the matcher parses the first line of each finding;
// the indented chain lines are context it ignores.
func printText(diags []analysis.Diagnostic, root string) {
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	for _, d := range diags {
		d.Pos.Filename = rel(d.Pos.Filename)
		fmt.Println(d)
		for i, step := range d.Path {
			fmt.Printf("    #%d %s:%d:%d: in %s\n", i+1, rel(step.Pos.Filename), step.Pos.Line, step.Pos.Column, step.Func)
		}
	}
}

// filterArgs restricts diagnostics to the requested package directories.
// "./..." (and no arguments) selects everything.
func filterArgs(diags []analysis.Diagnostic, root string, args []string) []analysis.Diagnostic {
	var prefixes []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return diags
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(arg, "./")))
		prefixes = append(prefixes, strings.TrimSuffix(dir, string(filepath.Separator)))
	}
	if len(prefixes) == 0 {
		return diags
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		for _, dir := range prefixes {
			if strings.HasPrefix(d.Pos.Filename, dir+string(filepath.Separator)) || filepath.Dir(d.Pos.Filename) == dir {
				kept = append(kept, d)
				break
			}
		}
	}
	return kept
}

// findModuleRoot walks up from the working directory to the directory
// containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
