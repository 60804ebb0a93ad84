package experiments

import (
	"fmt"
	"io"
)

// WriteMarkdown renders evaluated experiments as the EXPERIMENTS.md body:
// one section per figure with a paper-vs-measured table.
func WriteMarkdown(w io.Writer, evals []Evaluated) error {
	pass := 0
	total := 0
	for _, e := range evals {
		for _, m := range e.Metrics {
			total++
			if m.OK() {
				pass++
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%d of %d shape metrics inside their acceptance bands.\n", pass, total); err != nil {
		return err
	}
	for _, e := range evals {
		fmt.Fprintf(w, "\n## %s: %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "- Workload: %s\n", e.Workload)
		fmt.Fprintf(w, "- Modules: `%s`\n\n", e.Modules)
		fmt.Fprintf(w, "| metric | paper | measured | band | status |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|\n")
		for _, m := range e.Metrics {
			status := "ok"
			if !m.OK() {
				status = "**miss**"
			}
			measured := fmt.Sprintf("%.2f%s", m.Measured, m.Unit)
			if m.Missing {
				measured = "missing"
			}
			fmt.Fprintf(w, "| %s | %.2f%s | %s | [%.2f, %.2f] | %s |\n",
				m.Name, m.Paper, m.Unit, measured, m.Lo, m.Hi, status)
		}
	}
	return nil
}
