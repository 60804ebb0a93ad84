// Package study mounts at internal/study: a determinism root. The
// banned calls it reaches sit two hops away in netproxy.
package study

import "wearwild/internal/mnet/netproxy"

// Pipeline is the root entry point of the fixture chain.
func Pipeline() (int64, int) {
	return netproxy.Stamp(), netproxy.Draw() + netproxy.Seeded()
}
