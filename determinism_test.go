package wearwild

import (
	"bytes"
	"fmt"
	"testing"
)

// TestByteIdenticalRuns is the determinism regression gate: the whole
// pipeline — generate, study, render, evaluate — executed twice in the
// same process from the same seed must produce byte-identical text, and
// so must every one of several renders of one run's Results. Go
// randomises map iteration order per range statement, so an emitting
// map range anywhere in the render or evaluate path shows up as a diff
// between two renders of the same Results, and a float reduction folded
// in map order as a diff between the two runs. Sixteen renders make a
// two-key map range that happens to agree every time vanishingly rare.
func TestByteIdenticalRuns(t *testing.T) {
	const rendersPerRun = 8
	run := func() []byte {
		ds, err := Generate(SmallConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStudy(ds)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i := 0; i < rendersPerRun; i++ {
			var out bytes.Buffer
			Render(&out, res, 0)
			if err := WriteExperimentsMarkdown(&out, Evaluate(res)); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = out.Bytes()
			} else if !bytes.Equal(first, out.Bytes()) {
				t.Fatalf("render %d of one Results differs from the first: %s", i+1, firstDiff(first, out.Bytes()))
			}
		}
		return first
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal(firstDiff(first, second))
	}
}

// firstDiff renders a small, positioned report of where two outputs
// diverge, so a determinism failure names the figure at fault.
func firstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("outputs diverge at line %d:\n  run 1: %s\n  run 2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("outputs diverge in length: %d vs %d lines", len(al), len(bl))
}
