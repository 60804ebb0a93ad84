// Package core mounts at the study root: its record loops seed both
// growth spellings (append and map insert into long-lived state) next
// to every sanctioned bounded-accumulator shape, and its driver makes
// the helper package reachable so that finding carries a chain.
package core

import (
	"wearwild/internal/gen"
	"wearwild/internal/helper"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/stats"
)

// Ledger is study-lifetime state.
type Ledger struct {
	all    []proxylog.Record
	byUser map[string][]proxylog.Record
	counts map[string]int
}

// Load materialises every record into the ledger: the append and the
// map-insert growth spellings, plus the bounded per-user count that
// stays clean because its value carries no records.
func (l *Ledger) Load(recs []proxylog.Record) {
	for _, r := range recs {
		l.all = append(l.all, r)                       // want membound
		l.byUser[r.User] = append(l.byUser[r.User], r) // want membound
		l.counts[r.User] = l.counts[r.User] + 1
	}
}

// Study drives the whole fixture surface from the root package, making
// helper.Accumulate and the stats reservoir reachable.
func Study(recs []proxylog.Record, l *Ledger, res *stats.Reservoir) {
	l.Load(recs)
	helper.Accumulate(recs)
	res.Observe(recs)
	_ = gen.Emit(4)
}

// Publish regroups a parameter slice but hands the groups back: a
// returned local is the materialise-and-hand-back habit, so the
// bounded-regroup exemption must not apply.
func Publish(recs []proxylog.Record) map[string][]proxylog.Record {
	byUser := make(map[string][]proxylog.Record)
	for _, r := range recs {
		byUser[r.User] = append(byUser[r.User], r) // want membound
	}
	return byUser
}

// Drain buffers a record channel: a tail is unbounded input, so the
// never-returned local is not bounded-by-input and must still flag.
func Drain(ch chan proxylog.Record) int {
	var all []proxylog.Record
	for r := range ch {
		all = append(all, r) // want membound
	}
	n := len(all)
	return n
}

// Latest keeps one record per fixed slot: fixed-size state never
// grows, clean.
func Latest(recs []proxylog.Record) [4]proxylog.Record {
	var slots [4]proxylog.Record
	for i, r := range recs {
		slots[i%4] = r
	}
	return slots
}

// Expand reuses a scratch window across iterations, reset with
// x = x[:0] each pass: scratch reuse, clean.
func Expand(recs []proxylog.Record) int {
	var window []proxylog.Record
	total := 0
	for _, r := range recs {
		window = window[:0]
		window = append(window, r)
		total += len(window)
	}
	return total
}

// Expand2 spells the same reset through append(x[:0], ...): clean.
func Expand2(recs []proxylog.Record) int {
	var window []proxylog.Record
	total := 0
	for _, r := range recs {
		window = append(window[:0], r)
		total += len(window)
	}
	return total
}

// Pair builds a per-iteration group that dies with the loop body:
// clean.
func Pair(recs []proxylog.Record) int {
	n := 0
	for _, r := range recs {
		group := []proxylog.Record{r}
		group = append(group, r)
		n += len(group)
	}
	return n
}

// Snapshot materialises deliberately; the directive records why and
// silences the finding.
func Snapshot(recs []proxylog.Record) []proxylog.Record {
	var keep []proxylog.Record
	for _, r := range recs {
		//wearlint:ignore membound fixture: deliberate materialisation kept for the suppression path
		keep = append(keep, r)
	}
	return keep
}
