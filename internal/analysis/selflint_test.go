package analysis

import (
	"path/filepath"
	"testing"
)

// TestSelfLint runs every analyzer over wearwild's own source tree. It is
// the tier-1 enforcement of the determinism invariants: a time.Now in sim
// code or an unsorted map-range emit in internal/core fails `go test
// ./...`, not just CI.
func TestSelfLint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := mod.Run()
	if err != nil {
		t.Fatalf("type-checking module: %v", err)
	}
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s:%d:%d: %s: %s", pos.Filename, pos.Line, pos.Column, d.Check, d.Message)
	}
	if t.Failed() {
		t.Log("fix the finding")
	}
}
