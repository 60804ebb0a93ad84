// Package shard provides the deterministic fan-out primitives behind the
// parallel paths: a pure key hash that assigns subscribers to workers,
// the worker-count resolution, and Run, which runs one callback per
// worker. The study engine routes each subscriber to the worker its IMSI
// hashes to and merges the workers' partials; the generator sweep runs
// its workers with Run and emits in subscriber order.
//
// The determinism contract every caller relies on (see DESIGN.md,
// "Parallel analysis: worker determinism rules"):
//
//   - Which worker a key lands on is a pure function of the key and the
//     worker count — never of GOMAXPROCS or scheduling.
//   - The worker count is invisible in the output. Every cross-worker
//     merge is exact (integer adds, disjoint map unions); any reduction
//     that is not (float sums of non-integer values, Welford merges) is
//     folded sequentially in a canonical order (sorted keys), after the
//     join.
//   - Worker code must be side-effect-free outside its own state: no
//     shared mutable state, no wall clock, no global rand. The wearlint
//     detreach check enforces the latter two transitively. The first is
//     enforced by CI's go test -race ./... over the parallel-equivalence
//     tests, which run both Run callers (the generator sweep and
//     stream.Logs' index build) at several worker counts.
package shard

import (
	"runtime"
	"sync"
)

// Hash64 mixes a 64-bit key into a well-distributed 64-bit hash (the
// splitmix64 finalizer). It is a pure function, so key assignment is
// reproducible across runs and machines.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Workers resolves a worker-count setting: values <= 0 select one worker
// per available CPU.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run calls fn(i) for every i in [0, n), each on its own goroutine, and
// returns once all calls have. The calls run concurrently, so fn(i) may
// write only state that index i owns; CI's go test -race ./... over the
// parallel-equivalence tests enforces that for every caller.
func Run(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
