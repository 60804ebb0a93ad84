package fixture

import "math/rand"

// Test files get no exemption from the global-rand rule: a test that
// draws from the shared stream is not reproducible either.
func shuffledCase() int {
	return rand.Intn(3) // want detreach
}
