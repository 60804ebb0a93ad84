// Package work seeds the stream-sharing violations: one Rand flowing
// into two go statements, a loop-spawned goroutine capturing a Rand, and
// a parent drawn after its Split child was handed off — next to the
// sanctioned hand-a-child spelling.
package work

import "wearwild/internal/randx"

// FanTwice hands one parent to two goroutines, racing the stream state.
func FanTwice(r *randx.Rand, done chan float64) {
	go func() { done <- r.Float64() }()
	go func() { done <- r.Float64() }() // want randsplit
}

// LoopSpawn captures one parent in every iteration's goroutine.
func LoopSpawn(r *randx.Rand, done chan float64) {
	for i := 0; i < 3; i++ {
		go func() { done <- r.Float64() }() // want randsplit
	}
}

// DrawAfterHandoff splits a child to a worker goroutine, then keeps
// drawing from the parent: the parent is split-only after fan-out.
func DrawAfterHandoff(r *randx.Rand, done chan float64) float64 {
	c := r.Split("w", 1)
	go func() { done <- c.Float64() }()
	return r.Float64() // want randsplit
}

// HandChild hands each goroutine its own child split at the spawn site:
// the sanctioned fan-out spelling.
func HandChild(r *randx.Rand, done chan float64) {
	for i := uint64(0); i < 3; i++ {
		go consume(r.Split("w", i), done)
	}
}

func consume(c *randx.Rand, done chan float64) { done <- c.Float64() }
