// Package gen holds only the sanctioned stream spellings: every Split
// key derives from stable identity (parameters, simtime coordinates,
// constants, shard indices) and labels are constants.
package gen

import (
	"wearwild/internal/randx"
	"wearwild/internal/shard"
	"wearwild/internal/simtime"
)

// Users derives one child per subscriber keyed by IMSI, never the loop
// counter.
func Users(root *randx.Rand, imsis []uint64) float64 {
	var sum float64
	for _, imsi := range imsis {
		r := root.Split("user", imsi)
		sum += r.Float64()
	}
	return sum
}

// Days keys children off the simtime coordinate, which is exempt even
// as a loop variable: the day index is stable identity.
func Days(u *randx.Rand) float64 {
	var sum float64
	for d := simtime.Day(0); d < 7; d++ {
		sum += u.Split("day", uint64(d)).Float64()
	}
	return sum
}

// PerShard derives a child per shard index and draws only from that.
func PerShard(r *randx.Rand) []float64 {
	out := make([]float64, 4)
	shard.Run(4, 2, func(i int) {
		c := r.Split("shard", uint64(i))
		out[i] = c.Float64()
	})
	return out
}
