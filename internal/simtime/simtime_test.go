package simtime

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestEpochIsMonday(t *testing.T) {
	if Epoch.Weekday() != time.Monday {
		t.Fatalf("epoch weekday = %v, want Monday", Epoch.Weekday())
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
		return HourOf(h.Time()) == h && DayOf(d.Time()) == d
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

// TestHourOfMatchesSub holds HourOf to the form it replaced,
// t.Sub(Epoch) / time.Hour: across the study window's hour boundaries,
// at negative sub-second offsets, in other locations, on instants that
// carry a monotonic reading, at random instants over ±300 years, and on
// both sides of the ±292 years where Sub saturates.
func TestHourOfMatchesSub(t *testing.T) {
	ref := func(t time.Time) Hour { return Hour(int(t.Sub(Epoch) / time.Hour)) }
	locs := []*time.Location{time.UTC, time.FixedZone("UTC+5:30", 5*3600+1800), time.FixedZone("UTC-8", -8*3600)}
	check := func(tm time.Time) {
		t.Helper()
		for _, loc := range locs {
			if got, want := HourOf(tm.In(loc)), ref(tm.In(loc)); got != want {
				t.Fatalf("HourOf(%v) = %d, t.Sub form = %d", tm.In(loc), got, want)
			}
		}
	}
	offsets := []time.Duration{0, 1, -1, time.Second - 1, -time.Second + 1, -time.Second - 1, 59*time.Minute + 59*time.Second, -59 * time.Minute}
	for h := Hour(-48); h <= StudyHours+48; h++ {
		for _, off := range offsets {
			check(h.Time().Add(off))
		}
	}
	now := time.Now() // carries a monotonic reading, which Sub ignores against Epoch
	for _, d := range []time.Duration{0, -1, time.Hour, -37 * time.Hour, 1e18, -1e18} {
		check(now.Add(d))
	}
	r := rand.New(rand.NewPCG(1, 2))
	const span = 300 * 365 * 24 * 3600 // seconds
	for range 100000 {
		check(time.Unix(Epoch.Unix()+r.Int64N(2*span)-span, r.Int64N(1e9)))
	}
	maxD := time.Duration(math.MaxInt64)
	for _, edge := range []time.Time{Epoch.Add(maxD), Epoch.Add(-maxD - 1), time.Unix(math.MaxInt64/int64(time.Second)+Epoch.Unix(), 0)} {
		for _, off := range []time.Duration{-time.Hour, -time.Second - 1, -1, 0, 1, time.Second + 1, time.Hour} {
			check(edge.Add(off))
		}
	}
	check(time.Time{})
	check(time.Unix(1<<62, 999999999))
	check(time.Unix(-1<<62, 1))
}
