package experiments

import (
	"bytes"
	"strings"
	"testing"

	"wearwild/internal/core"
	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/sim"
)

func TestAllWellFormed(t *testing.T) {
	exps := All()
	if len(exps) != 17 {
		t.Fatalf("experiments = %d, want 17 (15 figure panels + 2 takeaways)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Workload == "" || e.Modules == "" {
			t.Fatalf("experiment %q missing fields", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Extract == nil {
			t.Fatalf("experiment %q has no extractor", e.ID)
		}
	}
	for _, id := range []string{"F2a", "F2b", "F3a", "F3b", "F3c", "F3d", "F4a", "F4b", "F4c", "F4d", "F5a", "F5b", "F6", "F7", "F8", "T1", "T2"} {
		if !seen[id] {
			t.Fatalf("experiment %s missing", id)
		}
	}
}

func TestMetricOK(t *testing.T) {
	m := Metric{Name: "x", Measured: 5, Lo: 4, Hi: 6}
	if !m.OK() {
		t.Fatal("in-band metric not OK")
	}
	m.Measured = 7
	if m.OK() {
		t.Fatal("out-of-band metric OK")
	}
	if !strings.Contains(m.String(), "MISS") {
		t.Fatal("String does not flag misses")
	}
	m.Measured = 5
	if !strings.Contains(m.String(), "OK") {
		t.Fatal("String does not flag passes")
	}
}

func TestExtractorsOnEmptyResults(t *testing.T) {
	// Extractors must be total: an empty Results yields metrics (likely
	// out of band) without panicking.
	res := &core.Results{}
	for _, e := range All() {
		metrics := e.Extract(res)
		if len(metrics) == 0 {
			t.Fatalf("experiment %s extracted no metrics", e.ID)
		}
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := sim.DefaultConfig(1234)
	cfg.Population.WearableUsers = 1200
	cfg.Population.OrdinaryUsers = 3600
	cfg.Cells.UrbanSectors = 700
	cfg.Cells.RuralSectors = 300
	cfg.OrdinaryMobilitySample = 1200
	ds, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunDataset(ds, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	evals := Evaluate(res)
	if len(evals) != len(All()) {
		t.Fatalf("evaluated %d", len(evals))
	}
	failures := 0
	for _, e := range evals {
		for _, m := range e.Metrics {
			if !m.OK() {
				failures++
				t.Logf("%s: %s", e.ID, m)
			}
		}
	}
	if failures > 0 {
		t.Fatalf("%d metrics out of band", failures)
	}

	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, evals); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## F2a", "## T2", "| metric |", "shape metrics inside"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
	if strings.Contains(out, "**miss**") {
		t.Fatal("markdown reports misses on the reference seed")
	}
}

// TestMissingRowIsNamedMiss evaluates a Results whose Fig 6 lacks the
// Health-Fitness category: its rank metric is a miss marked Missing, and
// both renderings say the row is missing instead of printing a rank.
func TestMissingRowIsNamedMiss(t *testing.T) {
	res := &core.Results{Fig6: []core.CategoryShare{
		{Category: apps.Communication}, {Category: apps.Shopping}, {Category: apps.Weather},
	}}
	var hf, weather Metric
	for _, e := range Evaluate(res) {
		if e.ID != "F6" {
			continue
		}
		for _, m := range e.Metrics {
			switch m.Name {
			case "Health-Fitness user rank":
				hf = m
			case "Weather user rank":
				weather = m
			}
		}
	}
	if !hf.Missing || hf.OK() {
		t.Fatalf("Health-Fitness rank with no Fig 6 row: %+v, want a Missing miss", hf)
	}
	if weather.Missing || weather.Measured != 3 || !weather.OK() {
		t.Fatalf("Weather rank: %+v, want rank 3 in band", weather)
	}
	if s := hf.String(); !strings.Contains(s, "measured=missing") || !strings.Contains(s, "MISS") {
		t.Errorf("String does not name the missing row: %q", s)
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, []Evaluated{{Experiment: Experiment{ID: "F6"}, Metrics: []Metric{hf}}}); err != nil {
		t.Fatal(err)
	}
	if want := "| Health-Fitness user rank | 14.00 | missing | [8.00, 15.00] | **miss** |"; !strings.Contains(buf.String(), want) {
		t.Errorf("markdown row %q not found in:\n%s", want, buf.String())
	}
}
