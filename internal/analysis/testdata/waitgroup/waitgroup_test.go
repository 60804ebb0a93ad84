package fixture

import (
	"sync"
	"testing"
)

// TestAddInside repeats the Add-inside mistake in a test file: the
// placement rule judges test files too.
func TestAddInside(t *testing.T) {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want ctxflow
		defer wg.Done()
	}()
	wg.Wait()
}

// TestMissingDone guards a goroutine that never signals.
func TestMissingDone(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want ctxflow
		t.Log("no Done")
	}()
	wg.Wait()
}
