package stream

import (
	"testing"

	"wearwild/internal/leakcheck"
)

// TestMain fails the run when a goroutine started by the package's code
// outlives its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
