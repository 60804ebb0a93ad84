// Package emit seeds the errdrop violations: error-returning calls used
// as bare or deferred statements, next to every sanctioned spelling —
// checked, assigned to _ (a deferred call inside a literal) and exempt
// receivers.
package emit

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
)

// process returns an error the callers below variously drop or handle.
func process(n int) error {
	if n < 0 {
		return fmt.Errorf("negative: %d", n)
	}
	return nil
}

// emit returns a value and an error.
func emit(n int) (int, error) {
	return n, process(n)
}

// Dropped discards both forms outright.
func Dropped(n int) {
	process(n)       // want errdrop
	emit(n)          // want errdrop
	defer process(n) // want errdrop
}

// Handled propagates and acknowledges.
func Handled(n int) error {
	if err := process(n); err != nil {
		return err
	}
	_, err := emit(n)
	if err != nil {
		return err
	}
	_ = process(n)
	defer func() { _ = process(n) }()
	return nil
}

// Exempt covers the documented exemption classes.
func Exempt(w *bufio.Writer, path string) string {
	fmt.Println("status")
	fmt.Fprintf(os.Stderr, "status: %s\n", path)
	var sb strings.Builder
	sb.WriteString("a")
	var buf bytes.Buffer
	buf.WriteByte('b')
	f, err := os.Open(path)
	if err != nil {
		return sb.String()
	}
	defer f.Close()
	return sb.String()
}

// DroppedWriter drops a flushable writer's error: the writer path, which
// errdrop also guards in test files.
func DroppedWriter(w *bufio.Writer) {
	w.Flush() // want errdrop
}
