package shard

import (
	"sync/atomic"
	"testing"
)

// TestForChunkedCoversEveryIndexOnce at several worker counts, including
// workers > n and n == 0.
func TestForChunkedCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 8, 2000} {
			hits := make([]int32, n)
			ForChunked(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d workers=%d: bad range [%d,%d)", n, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestHash64Spread: the finalizer must not collapse small sequential
// keys (IMSIs are sequential) onto few shards.
func TestHash64Spread(t *testing.T) {
	const shards = 32
	var used [shards]bool
	for i := uint64(0); i < 1000; i++ {
		used[Hash64(i)%shards] = true
	}
	for s, ok := range used {
		if !ok {
			t.Fatalf("shard %d never hit by 1000 sequential keys", s)
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
