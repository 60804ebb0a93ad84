// Package netproxy mounts at internal/mnet/netproxy, outside the
// determinism roots and on the wall-clock allowlist: only the clock reads
// the roots can reach may be flagged, while a global-stream draw is
// flagged here whether reachable or not.
package netproxy

import (
	"math/rand"
	"time"
)

// Stamp is reachable from study.Pipeline: its clock read is a finding.
func Stamp() int64 {
	return time.Now().UnixNano() // want detreach
}

// Draw is reachable too: the global-stream draw is a finding.
func Draw() int {
	return rand.Intn(6) // want detreach
}

// Seeded constructs its own stream: rand.New* is not banned.
func Seeded() int {
	return rand.New(rand.NewSource(1)).Intn(6)
}

// Clock hands the wall clock out as a value, which netproxy may do.
var Clock = time.Now

// Unused is not reachable from any root: its clock read stays silent,
// proving the clock rule is reachability-based inside the allowlist.
func Unused() int64 {
	return time.Now().UnixNano()
}

// UnusedDraw is not reachable either, but only internal/randx may touch
// the global stream: flagged by the allowlist rule, without a chain.
func UnusedDraw() int {
	return rand.Intn(6) // want detreach
}
