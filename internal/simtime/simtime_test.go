package simtime

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestEpochIsMonday(t *testing.T) {
	if e := utc(Epoch); e != time.Date(2017, time.December, 11, 0, 0, 0, 0, time.UTC) || e.Weekday() != time.Monday {
		t.Fatalf("epoch = %v (%v), want Monday 2017-12-11", e, e.Weekday())
	}
	if Day(0).Weekday() != time.Monday {
		t.Fatalf("day 0 weekday = %v", Day(0).Weekday())
	}
}

func TestWindowSizes(t *testing.T) {
	if StudyDays != 154 {
		t.Fatalf("study days = %d, want 154 (22 weeks)", StudyDays)
	}
	if DetailDays != 49 {
		t.Fatalf("detail days = %d, want 49 (7 weeks)", DetailDays)
	}
	if DetailStartDay != 105 {
		t.Fatalf("detail start = %d", DetailStartDay)
	}
	if FullStudy().Days() != StudyDays || Detail().Days() != DetailDays {
		t.Fatal("window day counts disagree with constants")
	}
	if FullStudy().Weeks() != StudyWeeks || Detail().Weeks() != DetailWeeks {
		t.Fatal("window week counts disagree with constants")
	}
}

func TestHourDayRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		h := Hour(raw % StudyHours)
		d := h.Day()
		if h.OfDay() < 0 || h.OfDay() >= 24 {
			return false
		}
		if d.Start() > h || d.Start()+HoursPerDay <= h {
			return false
		}
		return HourOf(Epoch.Add(time.Duration(h)*time.Hour)) == h && DayOf(d.Time()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeekend(t *testing.T) {
	// Day 0 = Monday ... day 5 = Saturday, day 6 = Sunday.
	for d := Day(0); d < 5; d++ {
		if d.IsWeekend() {
			t.Fatalf("day %d should be a weekday", d)
		}
	}
	if !Day(5).IsWeekend() || !Day(6).IsWeekend() {
		t.Fatal("days 5/6 should be weekend")
	}
	if Day(7).IsWeekend() {
		t.Fatal("day 7 should be Monday again")
	}
}

// TestWeekdayBeforeEpoch pins Weekday on days before the epoch to the
// calendar's, so IsWeekend holds there too.
func TestWeekdayBeforeEpoch(t *testing.T) {
	for d := Day(-14); d < 0; d++ {
		want := utc(Epoch).AddDate(0, 0, int(d)).Weekday()
		if got := d.Weekday(); got != want {
			t.Fatalf("day %d weekday = %v, want %v", d, got, want)
		}
		if weekend := want == time.Saturday || want == time.Sunday; d.IsWeekend() != weekend {
			t.Fatalf("day %d (%v): IsWeekend = %v", d, want, d.IsWeekend())
		}
	}
}

func TestDetailWindowMembership(t *testing.T) {
	if Day(DetailStartDay - 1).InDetailWindow() {
		t.Fatal("day before detail window flagged as inside")
	}
	if !Day(DetailStartDay).InDetailWindow() {
		t.Fatal("detail start day not inside")
	}
	if !Day(StudyDays - 1).InDetailWindow() {
		t.Fatal("last study day not inside")
	}
	if Day(StudyDays).InDetailWindow() {
		t.Fatal("day past study end flagged as inside")
	}
}

func TestFirstLastWeek(t *testing.T) {
	w := FullStudy()
	fw := w.FirstWeek()
	if fw.Start != 0 || fw.End != 7 {
		t.Fatalf("first week = %+v", fw)
	}
	lw := w.LastWeek()
	if lw.Start != StudyDays-7 || lw.End != StudyDays {
		t.Fatalf("last week = %+v", lw)
	}
	if !fw.Contains(0) || fw.Contains(7) {
		t.Fatal("first-week membership wrong")
	}

	tiny := Window{Start: 3, End: 6}
	if got := tiny.FirstWeek(); got != tiny {
		t.Fatalf("first week of short window = %+v", got)
	}
	if got := tiny.LastWeek(); got != tiny {
		t.Fatalf("last week of short window = %+v", got)
	}
}

func TestWeekFirstDay(t *testing.T) {
	if Week(0).FirstDay() != 0 || Week(3).FirstDay() != 21 {
		t.Fatal("week first day arithmetic wrong")
	}
	if Day(20).Week() != 2 || Day(21).Week() != 3 {
		t.Fatal("day-to-week arithmetic wrong")
	}
}

// utc is the time.Time form of an instant, in UTC.
func utc(t Instant) time.Time { return time.Unix(0, int64(t)).UTC() }

// TestInstantMatchesTime holds the calendar arithmetic to the time.Time
// forms of the same UTC instant: the hour of day and the calendar date
// give HourOf, DayOf and OfDay, and Unix and UnixMilli must agree.
// It covers every hour of the study window and a year before the epoch
// at offsets around each hour boundary, random instants over the whole
// Instant range, and the range's ends.
func TestInstantMatchesTime(t *testing.T) {
	epochDay := utc(Epoch).Unix() / (24 * 3600)
	check := func(in Instant) {
		t.Helper()
		tm := utc(in)
		y, m, d := tm.Date()
		day := Day(time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix()/(24*3600) - epochDay)
		hour := day.Start() + Hour(tm.Hour())
		if HourOf(in) != hour || DayOf(in) != day || HourOf(in).OfDay() != tm.Hour() || HourOf(in).Day() != day {
			t.Fatalf("%v: HourOf %d (day %d, hour of day %d), DayOf %d; time.Time gives hour %d, day %d",
				tm, HourOf(in), HourOf(in).Day(), HourOf(in).OfDay(), DayOf(in), hour, day)
		}
		if in.Unix() != tm.Unix() || in.UnixMilli() != tm.UnixMilli() {
			t.Fatalf("%v: Unix %d, UnixMilli %d; time.Time gives %d, %d", tm, in.Unix(), in.UnixMilli(), tm.Unix(), tm.UnixMilli())
		}
	}
	offsets := []time.Duration{0, 1, -1, time.Millisecond - 1, -time.Millisecond, -time.Millisecond - 1,
		time.Second - 1, -time.Second + 1, -time.Second - 1, 59*time.Minute + 59*time.Second, -59 * time.Minute}
	for h := Hour(-365 * HoursPerDay); h <= StudyHours+48; h++ {
		for _, off := range offsets {
			check(Epoch.Add(time.Duration(h)*time.Hour + off))
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 100000 {
		check(Instant(int64(r.Uint64()) >> r.IntN(64)))
	}
	for _, edge := range []Instant{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64} {
		check(edge)
	}
}

// TestBeforeEpoch pins instants before the study to the hour and day that
// hold them: the divisions round down, not toward zero.
func TestBeforeEpoch(t *testing.T) {
	late := Instant(time.Date(2017, time.December, 10, 23, 0, 0, 0, time.UTC).UnixNano())
	if h := HourOf(late); h != -1 || h.Day() != -1 || h.OfDay() != 23 || DayOf(late) != -1 {
		t.Fatalf("2017-12-10 23:00: hour %d, day %d, hour of day %d", h, h.Day(), h.OfDay())
	}
	early := Instant(time.Date(2017, time.January, 3, 10, 0, 0, 0, time.UTC).UnixNano())
	if d := DayOf(early); d != -342 || d.Weekday() != time.Tuesday || d.Week() != -49 {
		t.Fatalf("2017-01-03 10:00: day %d (%v), week %d", d, d.Weekday(), d.Week())
	}
	if Day(-1).Week() != -1 || Day(-7).Week() != -1 || Day(-8).Week() != -2 {
		t.Fatal("weeks before the epoch should round down")
	}
}

// TestFromUnixRange: every count of seconds or milliseconds an Instant
// can hold converts exactly, and one past either end fails with ErrRange.
func TestFromUnixRange(t *testing.T) {
	for _, unit := range []time.Duration{time.Second, time.Millisecond} {
		lo, hi := math.MinInt64/int64(unit), math.MaxInt64/int64(unit)
		for _, v := range []int64{lo, lo + 1, -1, 0, 1, 1512950400, hi - 1, hi} {
			if got, err := FromUnix(v, unit); err != nil || int64(got) != v*int64(unit) {
				t.Errorf("%d x %v -> %d, %v", v, unit, got, err)
			}
		}
		for _, v := range []int64{math.MinInt64, lo - 1, hi + 1, math.MaxInt64} {
			if got, err := FromUnix(v, unit); !errors.Is(err, ErrRange) {
				t.Errorf("%d x %v -> %d, %v; want ErrRange", v, unit, got, err)
			}
		}
	}
}
