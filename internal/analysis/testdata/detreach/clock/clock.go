// Package clock mounts at internal/clock: neither a determinism root nor
// on the clock allowlist. It calls a clock handed in as a func value;
// that call names no banned function, so only reachability could flag
// it, and the roots do not reach it.
package clock

import "time"

// Since measures from start with whatever clock it is given.
func Since(now func() time.Time, start time.Time) time.Duration {
	return now().Sub(start)
}
