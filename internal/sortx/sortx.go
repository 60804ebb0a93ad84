// Package sortx holds the tiny sorting helpers that keep map-backed
// aggregation deterministic. Go randomises map iteration order per run;
// every loop that emits rows, appends samples, or accumulates floats from
// a map must walk it through Keys so the byte output of a study is a pure
// function of its seed. No lint check enforces the discipline; the
// determinism tests (TestByteIdenticalRuns renders each Results several
// times in one process) catch a loop that skips it, and this package is
// the one-line way to comply.
package sortx

import (
	"cmp"
	"slices"
)

// Keys returns the map's keys in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
