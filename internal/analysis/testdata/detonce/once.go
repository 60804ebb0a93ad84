// Package sim mounts at internal/gen/sim, a determinism root, under the
// full check catalog: one clock read and one global-stream draw must
// yield exactly two diagnostics, one per site.
package sim

import (
	"math/rand"
	"time"
)

// Jitter reads the clock and draws from the global stream.
func Jitter() int64 {
	stamp := time.Now().UnixNano()     // want detreach
	return stamp + int64(rand.Intn(6)) // want detreach
}
