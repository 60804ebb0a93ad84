// Package fixture exercises errdrop's writer-path rule, the one that
// applies in _test.go files (closecheck_test.go), next to the full rule
// that applies here.
package fixture

import (
	"bufio"
	"io"
	"os"
)

// Truncate drops a write-side Close in a function with no error result:
// outside test files every discarded error is flagged.
func Truncate(w io.Writer, path string) {
	bw := bufio.NewWriter(w)
	bw.Flush()      // want errdrop
	os.Remove(path) // want errdrop
}
