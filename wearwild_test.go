package wearwild

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd exercises the whole public API surface on a small
// dataset: generate, save/load, study, render, evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := SmallConfig(7)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Proxy.Len() == 0 || ds.MME.Len() == 0 || ds.UDR.Len() == 0 {
		t.Fatal("empty logs")
	}

	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Proxy.Len() != ds.Proxy.Len() {
		t.Fatal("reload mismatch")
	}

	res, err := RunStudy(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fig2a.WearableUsers == 0 {
		t.Fatal("no wearable users identified")
	}

	var out bytes.Buffer
	Render(&out, res, 10)
	text := out.String()
	for _, want := range []string{
		"Fig 2(a)", "Fig 3(c)", "Fig 4(c)", "Fig 5(a)", "Fig 8",
		"Through-Device",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}

	evals := Evaluate(res)
	if len(evals) != 17 {
		t.Fatalf("evaluations = %d", len(evals))
	}
	var md bytes.Buffer
	if err := WriteExperimentsMarkdown(&md, evals); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "## F4c") {
		t.Fatal("markdown missing experiment section")
	}
}

func TestStudyWithCustomConfig(t *testing.T) {
	ds, err := Generate(SmallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	usages := func(gap time.Duration) int {
		cfg := DefaultStudyConfig()
		cfg.SessionGap = gap
		res, err := RunStudyWith(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, row := range res.Fig7 {
			n += row.UsageSamples
		}
		return n
	}
	// A wider gap merges usages that the paper's one minute keeps apart.
	if paper, wide := usages(time.Minute), usages(time.Hour); wide >= paper {
		t.Fatalf("session gap not honoured: %d usages at 1h, %d at 1m", wide, paper)
	}
}
