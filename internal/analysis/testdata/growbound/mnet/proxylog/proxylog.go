// Package proxylog is the fixture codec: it owns the Record type the
// growth rule keys on and the decoder idiom both loop shapes come
// from. The package mounts at internal/mnet/proxylog, so its functions
// are audit roots themselves.
package proxylog

import "errors"

// ErrDone signals decoder exhaustion.
var ErrDone = errors.New("done")

// Record is one proxy log row.
type Record struct {
	User string
	Host string
}

// Decoder yields records one at a time.
type Decoder struct {
	recs []Record
	i    int
}

// Decode returns the next record.
func (d *Decoder) Decode() (Record, error) {
	if d.i >= len(d.recs) {
		return Record{}, ErrDone
	}
	r := d.recs[d.i]
	d.i++
	return r, nil
}

// ReadAll materialises the whole log through the decoder-idiom for
// loop: the canonical growth finding, in a root package so the
// diagnostic carries no chain.
func ReadAll(d *Decoder) ([]Record, error) {
	var out []Record
	for {
		rec, err := d.Decode()
		if err != nil {
			break
		}
		out = append(out, rec) // want membound
	}
	return out, nil
}

// CountHosts streams the same decoder into a bounded per-user count:
// the shape the streaming engine wants, clean.
func CountHosts(d *Decoder) map[string]int {
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
