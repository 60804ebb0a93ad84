// Package imei implements the International Mobile Equipment Identity
// number format: 15 decimal digits composed of an 8-digit Type Allocation
// Code (TAC) identifying the device model, a 6-digit serial number, and a
// Luhn check digit.
//
// The paper identifies SIM-enabled wearables by joining the IMEIs seen at
// the MME and Web proxy against the TAC ranges of known wearable models
// (§3.2); this package provides the identifier plumbing for that join.
package imei

import (
	"fmt"
	"math"

	"wearwild/internal/mnet/csvrow"
)

// TAC is an 8-digit Type Allocation Code. All devices of a given model
// (and often hardware revision) share a TAC.
type TAC uint32

const maxTAC = 99999999

// String renders the TAC as its zero-padded 8-digit form.
func (t TAC) String() string {
	var buf [20]byte
	return string(csvrow.AppendZeroPadded(buf[:0], uint64(t), 8))
}

// Valid reports whether the TAC fits in 8 digits.
func (t TAC) Valid() bool { return uint32(t) <= maxTAC }

// IMEI is a full 15-digit equipment identity, stored as its numeric value.
// The all-zero value is not a valid IMEI and doubles as "unknown".
type IMEI uint64

// New assembles an IMEI from a TAC and a 6-digit serial number, computing
// the Luhn check digit.
func New(tac TAC, serial uint32) (IMEI, error) {
	if !tac.Valid() {
		return 0, fmt.Errorf("imei: TAC %d out of range", tac)
	}
	if serial > 999999 {
		return 0, fmt.Errorf("imei: serial %d out of range", serial)
	}
	body := uint64(tac)*1000000 + uint64(serial) // 14 digits
	var buf [20]byte
	return IMEI(body*10 + uint64(luhnDigit(csvrow.AppendZeroPadded(buf[:0], body, 14)))), nil
}

// MustNew is New for inputs known to be valid; it panics on error.
func MustNew(tac TAC, serial uint32) IMEI {
	id, err := New(tac, serial)
	if err != nil {
		panic(err)
	}
	return id
}

// luhnDigit computes the Luhn check digit for a body of ASCII decimal
// digits. Walking right-to-left over the body, the rightmost digit is
// doubled (it sits in an odd position relative to the check digit), and
// so is every second one after it.
func luhnDigit(body []byte) int {
	sum := 0
	for i := len(body) - 1; i >= 0; i -= 2 {
		d := 2 * int(body[i]-'0')
		if d > 9 {
			d -= 9
		}
		sum += d
		if i > 0 {
			sum += int(body[i-1] - '0')
		}
	}
	return (10 - sum%10) % 10
}

// Parse parses a 15-digit IMEI string and verifies its check digit.
func Parse(s string) (IMEI, error) { return ParseBytes([]byte(s)) }

// ParseBytes is Parse over bytes; it allocates only to report an error.
func ParseBytes(b []byte) (IMEI, error) {
	if len(b) != 15 {
		return 0, fmt.Errorf("imei: %q is not 15 digits", string(b))
	}
	v, err := csvrow.ParseUint(b, math.MaxUint64)
	if err != nil {
		return 0, fmt.Errorf("imei: %q: %v", string(b), err)
	}
	if v == 0 || int(b[14]-'0') != luhnDigit(b[:14]) { // Valid, on the digits at hand
		return 0, fmt.Errorf("imei: %q fails the Luhn check", string(b))
	}
	return IMEI(v), nil
}

// Valid reports whether the IMEI is 15 digits with a correct check digit.
func (i IMEI) Valid() bool {
	if i == 0 || uint64(i) > 999999999999999 {
		return false
	}
	var buf [20]byte
	d := csvrow.AppendZeroPadded(buf[:0], uint64(i), 15)
	return int(d[14]-'0') == luhnDigit(d[:14])
}

// TAC returns the type allocation code (first 8 digits).
func (i IMEI) TAC() TAC { return TAC(uint64(i) / 10000000) }

// Serial returns the 6-digit serial number.
func (i IMEI) Serial() uint32 { return uint32(uint64(i) / 10 % 1000000) }

// String renders the IMEI as its zero-padded 15-digit form.
func (i IMEI) String() string {
	var buf [20]byte
	return string(csvrow.AppendZeroPadded(buf[:0], uint64(i), 15))
}

// Range is a contiguous block of serial numbers under one TAC, the unit in
// which operators allocate device identities. Lo and Hi are inclusive.
type Range struct {
	TAC TAC
	Lo  uint32
	Hi  uint32
}

// Contains reports whether the IMEI falls inside the range.
func (r Range) Contains(i IMEI) bool {
	return i.TAC() == r.TAC && i.Serial() >= r.Lo && i.Serial() <= r.Hi
}

// Size returns the number of identities in the range.
func (r Range) Size() int {
	if r.Hi < r.Lo {
		return 0
	}
	return int(r.Hi-r.Lo) + 1
}
