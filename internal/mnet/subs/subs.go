// Package subs defines subscriber identities shared by the MME and proxy
// log models. A subscriber is identified by an IMSI-like numeric id; the
// study joins MME and proxy records on it.
package subs

import (
	"fmt"
	"math"

	"wearwild/internal/mnet/csvrow"
)

// IMSI is a subscriber identity. Synthetic IMSIs are 15 digits: a 5-digit
// home-network prefix (MCC+MNC) followed by a 10-digit MSIN. The zero
// value means "unknown subscriber".
type IMSI uint64

// HomePrefix is the synthetic operator's MCC+MNC prefix.
const HomePrefix = 21407

const msinLimit = 10_000_000_000 // 10 digits

// New returns the IMSI with the home prefix and the given MSIN.
func New(msin uint64) (IMSI, error) {
	if msin >= msinLimit {
		return 0, fmt.Errorf("subs: MSIN %d exceeds 10 digits", msin)
	}
	return IMSI(HomePrefix*msinLimit + msin), nil
}

// MustNew is New for values known to fit; it panics on error.
func MustNew(msin uint64) IMSI {
	id, err := New(msin)
	if err != nil {
		panic(err)
	}
	return id
}

// MSIN returns the subscriber-specific part.
func (i IMSI) MSIN() uint64 { return uint64(i) % msinLimit }

// Home reports whether the IMSI carries the home-network prefix.
func (i IMSI) Home() bool { return uint64(i)/msinLimit == HomePrefix }

// String renders the 15-digit form.
func (i IMSI) String() string {
	var buf [20]byte
	return string(csvrow.AppendZeroPadded(buf[:0], uint64(i), 15))
}

// Parse parses a decimal IMSI string.
func Parse(s string) (IMSI, error) { return ParseBytes([]byte(s)) }

// ParseBytes is Parse over bytes; it allocates only to report an error.
func ParseBytes(b []byte) (IMSI, error) {
	if len(b) != 15 {
		return 0, fmt.Errorf("subs: IMSI %q is not 15 digits", string(b))
	}
	v, err := csvrow.ParseUint(b, math.MaxUint64)
	if err != nil {
		return 0, fmt.Errorf("subs: IMSI %q: %v", string(b), err)
	}
	return IMSI(v), nil
}
