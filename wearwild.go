// Package wearwild reproduces "A First Look at SIM-Enabled Wearables in
// the Wild" (Kolamunna et al., IMC 2018) as a runnable system: a synthetic
// mobile-ISP substrate standing in for the paper's proprietary dataset,
// and the full analysis pipeline that regenerates every figure and
// takeaway of the paper from the three vantage-point logs (MME,
// transparent Web proxy, usage records).
//
// The typical flow is three calls:
//
//	ds, err := wearwild.Generate(wearwild.DefaultConfig(42))
//	res, err := wearwild.RunStudy(ds)
//	wearwild.Render(os.Stdout, res, 20)
//
// Generate builds a deterministic dataset (same config + seed, same
// bytes); RunStudy runs the operator-side analysis, which never touches
// the generation ground truth; Render prints each figure as the rows and
// series the paper reports. Evaluate compares a run against the paper's
// published numbers.
package wearwild

import (
	"io"

	"wearwild/internal/core"
	"wearwild/internal/experiments"
	"wearwild/internal/gen/sim"
	"wearwild/internal/report"
)

// Config parameterises dataset generation. The zero value is not usable;
// start from DefaultConfig or SmallConfig.
type Config = sim.Config

// Dataset is a generated (or loaded) synthetic ISP dataset: substrate plus
// the MME, proxy and UDR logs.
type Dataset = sim.Dataset

// Results carries every reproduced figure; see the core package for the
// per-figure structures.
type Results = core.Results

// StudyConfig tunes the analysis (session gap, CDF resolution).
type StudyConfig = core.Config

// Evaluated pairs one experiment with its paper-vs-measured metrics.
type Evaluated = experiments.Evaluated

// DefaultConfig returns the paper-scale configuration (thousands of
// wearable users) for the given seed.
func DefaultConfig(seed uint64) Config { return sim.DefaultConfig(seed) }

// SmallConfig returns a fast configuration for tests and examples.
func SmallConfig(seed uint64) Config { return sim.SmallConfig(seed) }

// DefaultStudyConfig returns the paper's analysis parameters.
func DefaultStudyConfig() StudyConfig { return core.DefaultConfig() }

// Generate builds a dataset deterministically from the configuration.
func Generate(cfg Config) (*Dataset, error) { return sim.Generate(cfg) }

// Load reads a dataset directory written by (*Dataset).Save.
func Load(dir string) (*Dataset, error) { return sim.Load(dir) }

// RunStudy executes the full analysis with default parameters.
func RunStudy(ds *Dataset) (*Results, error) {
	return RunStudyWith(ds, core.DefaultConfig())
}

// RunStudyWith executes the full analysis with explicit parameters.
func RunStudyWith(ds *Dataset, cfg StudyConfig) (*Results, error) {
	return core.RunDataset(ds, cfg)
}

// Render prints every figure to w. maxRows truncates app-level tables
// (0 keeps all rows).
func Render(w io.Writer, res *Results, maxRows int) {
	report.New(w, maxRows).All(res)
}

// Evaluate compares a study run against the paper's reported values,
// returning one entry per figure/takeaway.
func Evaluate(res *Results) []Evaluated { return experiments.Evaluate(res) }

// WriteExperimentsMarkdown renders an evaluation as the EXPERIMENTS.md
// body.
func WriteExperimentsMarkdown(w io.Writer, evals []Evaluated) error {
	return experiments.WriteMarkdown(w, evals)
}
