// Package help sits one call below the sim root, so its finding
// carries the chain from sim.Generate.
package help

// Fill grows an unguarded accumulator on every iteration.
func Fill(n int) int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want membound
	}
	return len(out)
}
