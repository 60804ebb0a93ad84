package fixture

import (
	"bufio"
	"io"
	"os"
)

// DropFlush ignores the buffered writer's Flush error in a function that
// could have propagated it: flagged.
func DropFlush(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("row\n"); err != nil {
		return err
	}
	bw.Flush() // want errdrop
	return nil
}

// DeferDrop defers the close of a created (written) file: flagged.
func DeferDrop(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want errdrop
	_, err = f.WriteString("data")
	return err
}

// AckFlush assigns the error to _, the explicit greppable
// acknowledgment: passes.
func AckFlush(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("row\n"); err != nil {
		return err
	}
	_ = bw.Flush()
	return nil
}

// ReadOnly closes an os.Open handle; there are no buffered writes to
// lose, so the deferred Close passes.
func ReadOnly(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.ReadAll(f)
	return err
}

// NoErrorReturn cannot propagate the error anyway, so in a test file it
// is not flagged.
func NoErrorReturn(w io.Writer) {
	bw := bufio.NewWriter(w)
	bw.Flush()
}

// DropRemove drops an error that is not a writer teardown: outside the
// test-file rule, so not flagged.
func DropRemove(path string) error {
	os.Remove(path)
	return nil
}
