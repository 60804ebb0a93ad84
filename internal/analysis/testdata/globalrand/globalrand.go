// Package fixture exercises detreach's global-rand rule.
package fixture

import "math/rand"

func Draw() int {
	return rand.Intn(10) // want detreach
}

func Mix(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want detreach
}

// DrawSeeded uses the approved API: constructors build seeded streams and
// methods on *rand.Rand draw from them; neither is flagged.
func DrawSeeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}
