package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionInventory pins the committed LINT_SUPPRESSIONS.json
// against a fresh scan of the module: adding, moving, or re-justifying a
// suppression must show up as a reviewed diff to the inventory file (run
// `make lint-suppressions` to regenerate it). It also enforces the
// standing policy pins that used to live as ad-hoc CI greps: internal/gen
// carries no membound suppressions (DESIGN.md §9), every inventoried
// check name exists in the catalog, and no suppression uses the blanket
// "all" outside example code.
func TestSuppressionInventory(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	sups := mod.Suppressions()

	var got bytes.Buffer
	if err := WriteSuppressionsJSON(&got, sups); err != nil {
		t.Fatalf("encoding inventory: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(root, "LINT_SUPPRESSIONS.json"))
	if err != nil {
		t.Fatalf("reading committed inventory: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("suppression inventory drifted from LINT_SUPPRESSIONS.json; regenerate with `make lint-suppressions` and review the diff\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}

	var again bytes.Buffer
	if err := WriteSuppressionsJSON(&again, mod.Suppressions()); err != nil {
		t.Fatalf("re-encoding inventory: %v", err)
	}
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Errorf("inventory encoding is not byte-stable across scans")
	}

	catalog := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		catalog[a.Name] = true
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("%s:%d: suppression for %q has no reason", s.File, s.Line, s.Check)
		}
		if s.Check == "membound" && strings.HasPrefix(s.File, "internal/gen/") {
			t.Errorf("%s:%d: internal/gen must pass membound without suppressions (DESIGN.md §9)", s.File, s.Line)
		}
		if s.Check == "all" {
			if !strings.HasPrefix(s.File, "examples/") {
				t.Errorf("%s:%d: blanket //wearlint:ignore all is reserved for example code", s.File, s.Line)
			}
			continue
		}
		if !catalog[s.Check] {
			t.Errorf("%s:%d: suppression names unknown check %q — a typo here silences nothing", s.File, s.Line, s.Check)
		}
	}

	// Liveness: with no suppression applied, every inventoried directive
	// must silence a diagnostic of its check — on its own line or the
	// line below, at the reported position or on a step of the chain. A
	// renamed or left-over directive that silences nothing fails here.
	mod.ign = ignoreIndex{}
	diags, err := mod.Run()
	if err != nil {
		t.Fatalf("unfiltered run: %v", err)
	}
	type site struct {
		check, file string
		line        int
	}
	silenced := map[site]bool{}
	for _, d := range diags {
		positions := []token.Position{d.Pos}
		for _, step := range d.Path {
			positions = append(positions, step.Pos)
		}
		for _, pos := range positions {
			file := relSlash(root, pos.Filename)
			for _, check := range []string{d.Check, "all"} {
				silenced[site{check, file, pos.Line}] = true
				silenced[site{check, file, pos.Line - 1}] = true
			}
		}
	}
	for _, s := range sups {
		if !silenced[site{s.Check, s.File, s.Line}] {
			t.Errorf("%s:%d: //wearlint:ignore %s silences no diagnostic of that check; delete it or move it onto the finding", s.File, s.Line, s.Check)
		}
	}
}

// FuzzSuppressionInventory drives Module.Suppressions with arbitrary
// comment lines through the same oracle as FuzzIgnoreDirective, extended
// to the reason round-trip: a well-formed directive must appear in the
// inventory exactly once with its check and whitespace-normalised reason
// intact, anything else must not appear at all, and the JSON encoding
// must be byte-stable and decode back to the same inventory.
func FuzzSuppressionInventory(f *testing.F) {
	for _, s := range []string{
		"//wearlint:ignore detreach sim code stamps with simtime",
		"//wearlint:ignore all fixture",
		"//wearlint:ignore detreach",
		"//wearlint:ignoredetreach reason words",
		"//wearlint:ignore\tdetreach\ttabbed reason",
		"//wearlint:ignore growbound   spaced   out   reason",
		"//wearlint:ignore retain é unicode reason",
		"// plain comment",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r\x00") {
			t.Skip("comment text is single-line by construction")
		}
		src := "package p\n\nvar x = 1 //" + line + "\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "p/p.go", src, parser.ParseComments)
		if err != nil || file == nil {
			t.Skip("input does not scan as a comment")
		}
		if len(file.Comments) != 1 || len(file.Comments[0].List) != 1 {
			t.Skip("input split into multiple comments")
		}
		text := file.Comments[0].List[0].Text

		mod := &Module{
			Root:  "",
			Name:  "p",
			Fset:  fset,
			Units: []*Unit{{Rel: "p", Name: "p", Files: []*ast.File{file}}},
		}
		sups := mod.Suppressions()

		wantCheck, wantReason, wantMal, wantDir := fuzzDirectiveOracle(text)
		if !wantDir || wantMal {
			if len(sups) != 0 {
				t.Fatalf("non-inventoriable %q produced %+v", text, sups)
			}
		} else {
			if len(sups) != 1 {
				t.Fatalf("directive %q: want 1 inventory entry, got %+v", text, sups)
			}
			s := sups[0]
			if s.Check != wantCheck || s.Reason != wantReason {
				t.Fatalf("directive %q inventoried as (%q, %q), want (%q, %q)", text, s.Check, s.Reason, wantCheck, wantReason)
			}
			if s.File != "p/p.go" || s.Line != 3 {
				t.Fatalf("directive %q placed at %s:%d, want p/p.go:3", text, s.File, s.Line)
			}
		}

		var a, b bytes.Buffer
		if err := WriteSuppressionsJSON(&a, sups); err != nil {
			t.Fatalf("encoding: %v", err)
		}
		if err := WriteSuppressionsJSON(&b, mod.Suppressions()); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("encoding not byte-stable:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
		var back []Suppression
		if err := json.Unmarshal(a.Bytes(), &back); err != nil {
			t.Fatalf("inventory JSON does not round-trip: %v\n%s", err, a.Bytes())
		}
		if len(back) != len(sups) {
			t.Fatalf("round-trip length %d, want %d", len(back), len(sups))
		}
		for i := range back {
			if back[i] != sups[i] {
				t.Fatalf("round-trip entry %d = %+v, want %+v", i, back[i], sups[i])
			}
		}
	})
}
