// Package shard provides the deterministic fan-out primitives behind the
// parallel study pipeline: partition records into per-user shards by a
// pure key hash, run per-shard accumulators on a bounded worker pool, and
// merge the partials in fixed shard order.
//
// The determinism contract every caller relies on (see DESIGN.md,
// "Parallel analysis: shard-and-merge determinism rules"):
//
//   - The partition is a pure function of the key and the shard count —
//     never of Workers, GOMAXPROCS, or scheduling. Within a shard, items
//     keep their input order.
//   - Workers only decides how many shards are in flight at once; it is
//     invisible in the output. Any cross-shard reduction that is not
//     exact (float sums of non-integer values, Welford merges) must
//     instead be folded sequentially in a canonical order (sorted keys),
//     after the barrier.
//   - Shard code must be side-effect-free outside its own slot: no
//     shared mutable state, no wall clock, no global rand (the wearlint
//     detreach check enforces the latter two transitively).
package shard

import (
	"runtime"
	"sync"
)

// DefaultShards is the shard count used when a caller passes 0. It is a
// fixed constant — not NumCPU — so the shard structure (and therefore
// any merge that is sensitive to partial grouping) is identical on every
// machine.
const DefaultShards = 32

// Hash64 mixes a 64-bit key into a well-distributed 64-bit hash (the
// splitmix64 finalizer). It is a pure function, so shard assignment is
// reproducible across runs, machines and worker counts.
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

// Shards resolves a shard-count setting: values <= 0 select
// DefaultShards.
func Shards(n int) int {
	if n <= 0 {
		return DefaultShards
	}
	return n
}

// Partition distributes items into shards by key hash, preserving input
// order within each shard. All items with equal keys land in the same
// shard, so per-key aggregation inside a shard sees exactly the records
// a sequential pass would. A two-pass count keeps it to one allocation
// per shard.
func Partition[T any](items []T, shards int, key func(T) uint64) [][]T {
	shards = Shards(shards)
	counts := make([]int, shards)
	idx := make([]uint32, len(items))
	for i, it := range items {
		h := Hash64(key(it)) % uint64(shards)
		idx[i] = uint32(h)
		counts[h]++
	}
	out := make([][]T, shards)
	for i := range out {
		out[i] = make([]T, 0, counts[i])
	}
	for i, it := range items {
		out[idx[i]] = append(out[idx[i]], it)
	}
	return out
}

// Run executes fn(i) for i in [0, n) on a bounded worker pool. Indexes
// are handed out in order but completion order is unspecified; callers
// must write results into per-index slots so output stays deterministic
// regardless of scheduling.
func Run(n, workers int, fn func(i int)) {
	ForChunked(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked executes fn(lo, hi) over contiguous index ranges covering
// [0, n) on a bounded worker pool: one channel operation per chunk
// instead of one per index, which matters for fine-grained loop bodies.
// Chunk boundaries depend only on n and the resolved worker count's
// chunk budget — and since every index is visited exactly once and
// callers write per-index slots, the chunking itself is invisible in the
// output.
func ForChunked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// Over-partition so uneven chunks rebalance across the pool, but
	// keep chunks large enough to amortise the channel op.
	chunks := workers * 8
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	for lo := 0; lo < n; lo += size {
		next <- lo
	}
	close(next)
	wg.Wait()
}

// Map runs fn over each shard on a bounded pool and returns the
// per-shard results in shard order: the fan-out half of shard-and-merge.
func Map[S, R any](shards []S, workers int, fn func(i int, s S) R) []R {
	out := make([]R, len(shards))
	Run(len(shards), workers, func(i int) {
		out[i] = fn(i, shards[i])
	})
	return out
}
