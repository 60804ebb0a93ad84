// Package simtime defines the study calendar used throughout wearwild.
//
// The paper analyses five months of summary statistics (mid-December 2017
// to mid-May 2018) and keeps full logs for the final seven weeks. The
// calendar counts whole hours, days and weeks since the study epoch: hour 0
// is midnight on the first study day, and windows, grids and per-day keys
// are these integer indices. Log records keep their instants as time.Time:
// mme.Record and proxylog.Record carry one through the generator, the
// engine and mobmetrics, and HourOf and DayOf map it onto the calendar
// wherever an index is needed.
package simtime

import (
	"math"
	"time"
)

// Epoch is the first instant of the study window. It is a Monday so that
// week boundaries align with calendar weeks, matching the paper's
// first-week/last-week comparisons.
var Epoch = time.Date(2017, time.December, 11, 0, 0, 0, 0, time.UTC)

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

// Time returns the wall-clock instant at the start of the hour.
func (h Hour) Time() time.Time { return Epoch.Add(time.Duration(h) * time.Hour) }

// Day returns the day the hour falls in.
func (h Hour) Day() Day { return Day(int(h) / HoursPerDay) }

// OfDay returns the hour of day in [0, 24).
func (h Hour) OfDay() int { return int(h) % HoursPerDay }

// Day and week arithmetic.

// Start returns the first hour of the day.
func (d Day) Start() Hour { return Hour(int(d) * HoursPerDay) }

// Week returns the week the day falls in.
func (d Day) Week() Week { return Week(int(d) / DaysPerWeek) }

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

// Time returns the wall-clock instant at the start of the day.
func (d Day) Time() time.Time { return d.Start().Time() }

// InDetailWindow reports whether the day is inside the final seven-week
// detailed-log window.
func (d Day) InDetailWindow() bool { return int(d) >= DetailStartDay && int(d) < StudyDays }

// FirstDay returns the first day of the week.
func (w Week) FirstDay() Day { return Day(int(w) * DaysPerWeek) }

// HourOf converts a wall-clock instant to an hour index. Instants before
// Epoch map to negative hours: the nanoseconds since Epoch are divided by
// an hour, truncating toward zero, as t.Sub(Epoch) / time.Hour does. The
// integer form skips Sub's overflow checks; it holds while the offset
// fits a Duration (±292 years), and beyond that HourOf takes Sub's
// saturated value, as before.
func HourOf(t time.Time) Hour {
	const maxSec = math.MaxInt64/int64(time.Second) - 1
	if sec := t.Unix() - Epoch.Unix(); -maxSec <= sec && sec <= maxSec {
		return Hour(int((sec*int64(time.Second) + int64(t.Nanosecond()-Epoch.Nanosecond())) / int64(time.Hour)))
	}
	return Hour(int(t.Sub(Epoch) / time.Hour))
}

// DayOf converts a wall-clock instant to a day index.
func DayOf(t time.Time) Day { return HourOf(t).Day() }

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
