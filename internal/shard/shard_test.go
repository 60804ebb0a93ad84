package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCallsConcurrently: every fn(i) waits on a barrier that all n
// calls must reach, so Run passes only if it calls each index exactly
// once and runs the calls concurrently; a serialising Run deadlocks at
// the first call and trips the timeout.
func TestRunCallsConcurrently(t *testing.T) {
	for _, n := range []int{0, 1, 2, 8} {
		hits := make([]int32, n)
		var barrier sync.WaitGroup
		barrier.Add(n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			Run(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
				barrier.Done()
				barrier.Wait()
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d: calls never all reached the barrier; Run does not run them concurrently", n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d called %d times", n, i, h)
			}
		}
	}
}

// TestHash64Spread: the finalizer must not collapse small sequential
// keys (IMSIs are sequential) onto few buckets.
func TestHash64Spread(t *testing.T) {
	const buckets = 32
	var used [buckets]bool
	for i := uint64(0); i < 1000; i++ {
		used[Hash64(i)%buckets] = true
	}
	for s, ok := range used {
		if !ok {
			t.Fatalf("bucket %d never hit by 1000 sequential keys", s)
		}
	}
}

// TestWorkersResolution pins the <=0 default.
func TestWorkersResolution(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}
