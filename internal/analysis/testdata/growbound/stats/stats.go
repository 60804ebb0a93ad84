// Package stats mounts at the bounded-accumulator set: membound's
// growth rule exempts it wholesale (DESIGN.md §7), so even a record-retaining loop
// here stays silent.
package stats

import "wearwild/internal/mnet/proxylog"

// Reservoir keeps a bounded sample of records.
type Reservoir struct {
	Sample []proxylog.Record
}

// Observe retains records inside the exempt package: a bounded
// accumulator by contract, never flagged.
func (r *Reservoir) Observe(recs []proxylog.Record) {
	for _, rec := range recs {
		if len(r.Sample) < 8 {
			r.Sample = append(r.Sample, rec)
		}
	}
}
