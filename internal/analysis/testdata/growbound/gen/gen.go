// Package gen is the producer exemption: core.Study reaches Emit, but
// the generator tree builds the record slices the study consumes, so
// the very loop the growth rule flags elsewhere stays silent here.
package gen

import "wearwild/internal/mnet/proxylog"

// Emit builds a record slice the generator way — outside the growth
// rule's audited surface.
func Emit(n int) []proxylog.Record {
	var out []proxylog.Record
	for i := 0; i < n; i++ {
		rec := proxylog.Record{User: "u", Host: "h"}
		out = append(out, rec)
	}
	return out
}
