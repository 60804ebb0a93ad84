package wearwild

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestExperimentsFileMatchesRun regenerates the reference run that
// EXPERIMENTS.md documents (`wearstudy -seed 1234 -eval`: seed 1234,
// default scale) and compares its rendered table with the file, byte for
// byte, from the "N of 49 shape metrics" line to the end, so the file
// cannot drift from the code.
func TestExperimentsFileMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full default-scale dataset")
	}
	file, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	start := regexp.MustCompile(`(?m)^\d+ of \d+ shape metrics`).FindIndex(file)
	if start == nil {
		t.Fatal(`EXPERIMENTS.md has no "N of M shape metrics" line`)
	}
	ds, err := Generate(DefaultConfig(1234))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStudy(ds)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteExperimentsMarkdown(&got, Evaluate(res)); err != nil {
		t.Fatal(err)
	}
	if want := file[start[0]:]; !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EXPERIMENTS.md (run 1) differs from the seed-1234 run (run 2): %s", firstDiff(want, got.Bytes()))
	}
}
