// Package overlap pins one diagnostic per site for a dropped writer
// Close/Flush under the full check catalog: errdrop owns the site, and
// no other check reports it again.
package overlap

import (
	"bufio"
	"fmt"
	"os"
)

// WriteReport drops the Flush and Close errors of a writer path: one
// diagnostic per call site, not two.
func WriteReport(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintln(w, "report"); err != nil {
		return err
	}
	w.Flush()       // want errdrop
	defer f.Close() // want errdrop
	return nil
}
