// Package helper sits one hop below the study root: its record loop is
// audited only because core.Study reaches it, so its finding must
// carry the call chain.
package helper

import "wearwild/internal/mnet/proxylog"

// All is module-lifetime state.
var All []proxylog.Record

// Accumulate grows package state inside a record loop.
func Accumulate(recs []proxylog.Record) {
	for _, r := range recs {
		All = append(All, r) // want membound
	}
}
