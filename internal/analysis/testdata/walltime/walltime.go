// Package fixture exercises detreach's wall-clock rule. Marked lines must
// produce exactly one detreach diagnostic each.
package fixture

import "time"

// Epoch anchors the fixture's simulated clock; time.Unix is a pure
// constructor, not a clock read, and passes.
var Epoch = time.Unix(0, 0)

func Stamp() time.Time {
	return time.Now() // want detreach
}

func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want detreach
}

func Pause() {
	time.Sleep(time.Millisecond) // want detreach
}

func Expire() <-chan time.Time {
	return time.After(time.Second) // want detreach
}

// Later compares two simulated instants; (time.Time).After is a method,
// not a clock read, and must not be flagged.
func Later(a, b time.Time) bool {
	return a.After(b)
}
