// Package core is the growth-rule clean tree: every record loop uses a
// sanctioned bounded shape — per-population counts, fixed slots,
// reset scratch, per-iteration locals — and the check must stay
// silent over all of it.
package core

import "wearwild/internal/mnet/proxylog"

// Tally streams a decoder into per-user counts: bounded by the
// population, not the record count.
func Tally(d *proxylog.Decoder) map[string]int {
	counts := make(map[string]int)
	for {
		rec, err := d.Decode()
		if err != nil {
			break
		}
		counts[rec.User] = counts[rec.User] + 1
	}
	return counts
}

// Hot keeps the busiest record per fixed slot.
func Hot(recs []proxylog.Record) [8]proxylog.Record {
	var slots [8]proxylog.Record
	for i, r := range recs {
		slots[i%8] = r
	}
	return slots
}

// Spread publishes one record per own-indexed shard slot of a
// pre-sized slice: a fixed-slot write, not growth.
func Spread(recs []proxylog.Record) []proxylog.Record {
	slots := make([]proxylog.Record, len(recs))
	for i, r := range recs {
		slots[i] = r
	}
	return slots
}

// Window reuses reset scratch across iterations.
func Window(recs []proxylog.Record) int {
	var buf []proxylog.Record
	total := 0
	for _, r := range recs {
		buf = append(buf[:0], r)
		total += len(buf)
	}
	return total
}

// Walk builds per-iteration state that dies with the loop body.
func Walk(recs []proxylog.Record) int {
	n := 0
	for _, r := range recs {
		pair := []proxylog.Record{r, r}
		n += len(pair)
	}
	return n
}

// Split regroups a parameter slice into locals that die with the call:
// residency is bounded by the input, and only derived counts leave
// through the named results. The bounded-regroup rule keeps it clean.
func Split(recs []proxylog.Record) (wearN, restN int) {
	var wear, rest []proxylog.Record
	for _, r := range recs {
		if r.Host == "w" {
			wear = append(wear, r)
		} else {
			rest = append(rest, r)
		}
	}
	wearN, restN = len(wear), len(rest)
	return
}

// Regroup gathers per-user timelines from a parameter slice and
// returns only their sizes: bounded-by-input, clean.
func Regroup(recs []proxylog.Record) map[string]int {
	byUser := make(map[string][]proxylog.Record)
	for _, r := range recs {
		byUser[r.User] = append(byUser[r.User], r)
	}
	sizes := make(map[string]int, len(byUser))
	for u, tl := range byUser {
		sizes[u] = len(tl)
	}
	return sizes
}
