// Package sim mounts at the generator root, putting pack on the
// allocation rule's surface.
package sim

import (
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/pack"
)

// Gen drives the collector and the packer from the generator side.
func Gen(recs []proxylog.Record) int {
	return len(pack.Collect(recs)) + len(pack.Pack(nil))
}
