// Package simtime defines the study calendar used throughout wearwild.
//
// The paper analyses five months of summary statistics (mid-December 2017
// to mid-May 2018) and keeps full logs for the final seven weeks. The
// calendar counts whole hours, days and weeks since the study epoch: hour 0
// is midnight on the first study day, and windows, grids and per-day keys
// are these integer indices. Log records keep their instants as an
// Instant, int64 nanoseconds with no time zone: mme.Record and
// proxylog.Record carry one through the generator, the engine and
// mobmetrics, and HourOf and DayOf floor-divide it onto the calendar.
package simtime

import (
	"errors"
	"math"
	"time"
)

// Instant is a point in time: nanoseconds since the Unix epoch, UTC. It
// spans the years 1677 to 2262.
type Instant int64

// Epoch is the first instant of the study window, 2017-12-11 00:00 UTC.
// It is a Monday so that week boundaries align with calendar weeks,
// matching the paper's first-week/last-week comparisons.
const Epoch = Instant(1512950400 * time.Second)

// ErrRange reports a timestamp outside the span an Instant holds.
var ErrRange = errors.New("simtime: timestamp outside the Instant range")

// FromUnix returns the instant n units after the Unix epoch, or ErrRange
// if it falls outside the Instant range.
func FromUnix(n int64, unit time.Duration) (Instant, error) {
	if n > math.MaxInt64/int64(unit) || n < math.MinInt64/int64(unit) {
		return 0, ErrRange
	}
	return Instant(n * int64(unit)), nil
}

// Unix returns the seconds since the Unix epoch, rounded down.
func (t Instant) Unix() int64 { return floorDiv(int64(t), int64(time.Second)) }

// UnixMilli returns the milliseconds since the Unix epoch, rounded down.
func (t Instant) UnixMilli() int64 { return floorDiv(int64(t), int64(time.Millisecond)) }

// Add returns the instant d after t.
func (t Instant) Add(d time.Duration) Instant { return t + Instant(d) }

// floorDiv divides a by b > 0, rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

const (
	// HoursPerDay and DaysPerWeek are spelled out to keep index arithmetic
	// self-describing.
	HoursPerDay = 24
	DaysPerWeek = 7

	// StudyWeeks is the full five-month summary window (22 weeks = 154
	// days, mid-December to mid-May).
	StudyWeeks = 22
	// DetailWeeks is the final window with full MME and proxy logs.
	DetailWeeks = 7
)

// StudyDays is the number of days in the full window.
const StudyDays = StudyWeeks * DaysPerWeek

// StudyHours is the number of hours in the full window.
const StudyHours = StudyDays * HoursPerDay

// DetailDays is the number of days in the detailed window.
const DetailDays = DetailWeeks * DaysPerWeek

// DetailStartDay is the first day index of the detailed window.
const DetailStartDay = StudyDays - DetailDays

// Hour is an hour index since Epoch.
type Hour int

// Day is a day index since Epoch.
type Day int

// Week is a week index since Epoch.
type Week int

// Day returns the day the hour falls in.
func (h Hour) Day() Day { return Day(floorDiv(int64(h), HoursPerDay)) }

// OfDay returns the hour of day in [0, 24).
func (h Hour) OfDay() int { return int(h - h.Day().Start()) }

// Day and week arithmetic.

// Start returns the first hour of the day.
func (d Day) Start() Hour { return Hour(int(d) * HoursPerDay) }

// Week returns the week the day falls in.
func (d Day) Week() Week { return Week(floorDiv(int64(d), DaysPerWeek)) }

// Weekday returns the day of week; Epoch is a Monday. The mod is a floor
// mod, so days before the epoch get valid weekdays too.
func (d Day) Weekday() time.Weekday {
	return time.Weekday(((int(time.Monday)+int(d))%7 + 7) % 7)
}

// IsWeekend reports whether the day is a Saturday or Sunday.
func (d Day) IsWeekend() bool {
	wd := d.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// Time returns the instant at the start of the day.
func (d Day) Time() Instant { return Epoch.Add(time.Duration(d.Start()) * time.Hour) }

// InDetailWindow reports whether the day is inside the final seven-week
// detailed-log window.
func (d Day) InDetailWindow() bool { return int(d) >= DetailStartDay && int(d) < StudyDays }

// FirstDay returns the first day of the week.
func (w Week) FirstDay() Day { return Day(int(w) * DaysPerWeek) }

// HourOf converts an instant to an hour index: the hours since the Unix
// epoch, rounded down, less Epoch's. Instants before Epoch map to
// negative hours.
func HourOf(t Instant) Hour {
	return Hour(floorDiv(int64(t), int64(time.Hour)) - int64(Epoch)/int64(time.Hour))
}

// DayOf converts an instant to a day index.
func DayOf(t Instant) Day { return HourOf(t).Day() }

// Window is a half-open [Start, End) day range used to scope analyses.
type Window struct {
	Start Day // inclusive
	End   Day // exclusive
}

// FullStudy is the five-month summary window.
func FullStudy() Window { return Window{Start: 0, End: StudyDays} }

// Detail is the final seven-week detailed window.
func Detail() Window { return Window{Start: DetailStartDay, End: StudyDays} }

// Contains reports whether the day is inside the window.
func (w Window) Contains(d Day) bool { return d >= w.Start && d < w.End }

// Days returns the window length in days.
func (w Window) Days() int { return int(w.End - w.Start) }

// Weeks returns the window length in whole weeks (rounded down).
func (w Window) Weeks() int { return w.Days() / DaysPerWeek }

// FirstWeek returns the window's opening seven days.
func (w Window) FirstWeek() Window {
	end := w.Start + DaysPerWeek
	if end > w.End {
		end = w.End
	}
	return Window{Start: w.Start, End: end}
}

// LastWeek returns the window's closing seven days.
func (w Window) LastWeek() Window {
	start := w.End - DaysPerWeek
	if start < w.Start {
		start = w.Start
	}
	return Window{Start: start, End: w.End}
}
