// Package fixture exercises the //wearlint:ignore suppression directive
// against deliberate detreach violations.
package fixture

import "time"

// Stamp is suppressed on the same line.
func Stamp() time.Time {
	return time.Now() //wearlint:ignore detreach fixture exercises same-line suppression
}

// StampAbove is suppressed from the line directly above.
func StampAbove() time.Time {
	//wearlint:ignore detreach fixture exercises line-above suppression
	return time.Now()
}

// StampAll is suppressed by the wildcard.
func StampAll() time.Time {
	return time.Now() //wearlint:ignore all fixture exercises the wildcard
}

// StampWrongCheck names a different check, so the detreach finding
// survives the filter.
func StampWrongCheck() time.Time {
	return time.Now() //wearlint:ignore maporder wrong check leaves detreach live // want detreach
}

// The bare directive below is malformed (no check, no reason) and must
// itself be reported under the unsuppressable "ignore" pseudo-check.
//wearlint:ignore
func Clean() time.Time {
	return time.Unix(0, 0)
}
