// Package core mounts at the study root, putting pack on the growth
// rule's surface.
package core

import (
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/pack"
)

// Study drives the collector from the study side.
func Study(recs []proxylog.Record) int {
	return len(pack.Collect(recs))
}
