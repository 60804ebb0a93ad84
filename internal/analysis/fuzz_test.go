package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// fuzzDirectiveOracle is an independent spelling of the suppression
// grammar collectIgnores and Module.Suppressions implement: text is a
// directive iff it starts with the ignore prefix ending at a word
// boundary; a directive with fewer than two fields (check + reason) is
// malformed; otherwise the first field is the suppressed check and the
// rest, whitespace-normalised, is the reason.
func fuzzDirectiveOracle(text string) (check, reason string, malformed, directive bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return "", "", false, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", true, true
	}
	return fields[0], strings.Join(fields[1:], " "), false, true
}

// FuzzIgnoreDirective drives the suppression-comment parser with
// arbitrary comment lines: every input must classify exactly as the
// oracle says — indexed under the right check, reported as malformed,
// or ignored entirely — and never panic. The seed corpus covers the
// word-boundary trap (//wearlint:ignoreXYZ), tab separators, wildcard
// and unicode reasons.
func FuzzIgnoreDirective(f *testing.F) {
	for _, s := range []string{
		"//wearlint:ignore detreach sim code stamps with simtime",
		"//wearlint:ignore all fixture",
		"//wearlint:ignore",
		"//wearlint:ignore ",
		"//wearlint:ignore detreach",
		"//wearlint:ignoredetreach reason words",
		"//wearlint:ignoreXYZ a b",
		"//wearlint:ignore\tdetreach\ttabbed reason",
		"//wearlint:ignore growbound   spaced   out   reason",
		"//wearlint:ignore retain é unicode reason",
		"// plain comment",
		"//",
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
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil || file == nil {
			t.Skip("input does not scan as a comment")
		}
		if len(file.Comments) != 1 || len(file.Comments[0].List) != 1 {
			t.Skip("input split into multiple comments")
		}
		text := file.Comments[0].List[0].Text

		ix := make(ignoreIndex)
		var malformed []Diagnostic
		collectIgnores(fset, []*ast.File{file}, &malformed, ix)

		wantCheck, _, wantMal, wantDir := fuzzDirectiveOracle(text)
		got := ix[ignoreKey{file: "fuzz.go", line: 3}]
		if len(ix) > 0 && len(got) == 0 {
			t.Fatalf("directive indexed at the wrong key: %v", ix)
		}
		switch {
		case !wantDir:
			if len(got) != 0 {
				t.Fatalf("non-directive %q indexed as %v", text, got)
			}
			if len(malformed) != 0 {
				t.Fatalf("non-directive %q reported malformed: %v", text, malformed)
			}
		case wantMal:
			if len(got) != 0 {
				t.Fatalf("malformed directive %q indexed as %v", text, got)
			}
			if len(malformed) != 1 {
				t.Fatalf("malformed directive %q: want 1 report, got %v", text, malformed)
			}
			if malformed[0].Check != "ignore" || malformed[0].Pos.Line != 3 {
				t.Fatalf("malformed report misplaced: %+v", malformed[0])
			}
			if !strings.Contains(malformed[0].Message, "malformed suppression") {
				t.Fatalf("malformed report message = %q", malformed[0].Message)
			}
		default:
			if len(malformed) != 0 {
				t.Fatalf("well-formed directive %q reported malformed: %v", text, malformed)
			}
			if len(got) != 1 || got[0] != wantCheck {
				t.Fatalf("directive %q indexed as %v, want [%s]", text, got, wantCheck)
			}
			if got[0] == "" || strings.ContainsAny(got[0], " \t") {
				t.Fatalf("indexed check name %q is not a clean token", got[0])
			}
		}
	})
}
