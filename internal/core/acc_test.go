package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
	"wearwild/internal/stats"
	"wearwild/internal/stream"
	"wearwild/internal/study/usermetrics"
)

// TestWearRecordBeforeEpoch studies one wearable transaction dated before
// the 2017-12-11 epoch, as a damaged saved log or a proxy with a wrong
// clock can produce: the study must not panic, and the day-of-week share
// lands on the record's own weekday.
func TestWearRecordBeforeEpoch(t *testing.T) {
	w := newIdentWorld(t)
	rec := w.tx(w.alice, w.watch, "h.example")
	rec.Time = time.Date(2017, time.January, 3, 0, 0, 0, 0, time.UTC) // a Tuesday
	src := &stream.Logs{Proxy: &proxylog.Log{Records: []proxylog.Record{rec}}, MME: &mme.Log{}, UDR: &udr.Log{}}
	res, err := RunStream(w.env, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := [7]float64{0, 1, 0, 0, 0, 0, 0}; res.Weekly.DayOfWeekTxShare != want {
		t.Fatalf("day-of-week tx share = %v, want all on Tuesday %v", res.Weekly.DayOfWeekTxShare, want)
	}
}

// TestActivityMatchesCollect checks addWearTraffic's activity fold against
// usermetrics.Collect, its reference: for random single-subscriber
// wearable records, whose days reach before the epoch and past the detail
// window, the four Fig 3(b/d) scalars must match bit for bit and the
// hours-per-active-day counts as a multiset.
func TestActivityMatchesCollect(t *testing.T) {
	w := newIdentWorld(t)
	e, err := newEngine(w.env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(32, 1))
	for trial := range 300 {
		// A span of a few days makes records share days and hours; a
		// base from 40 days before the epoch to past the study's end
		// reaches every side of the detail window.
		base := rng.IntN(simtime.StudyDays+80) - 40
		span := 1 + rng.IntN(30)
		recs := make([]proxylog.Record, 1+rng.IntN(200))
		for i := range recs {
			d := simtime.Day(base + rng.IntN(span))
			recs[i] = w.tx(w.alice, w.watch, "h.example")
			recs[i].Time = d.Time().Add(time.Duration(rng.IntN(24))*time.Hour + time.Duration(rng.IntN(3600))*time.Second)
			recs[i].BytesDown = rng.Int64N(1 << 20)
		}

		acc, st := newPartial(), &userStat{}
		e.addWearTraffic(acc, st, recs)
		a := usermetrics.Collect(recs, nil)[w.alice]
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"days per week", st.daysPerWeek, a.DaysPerWeek(detailWeeks())},
			{"tx per hour", st.txPerHour, a.TxPerActiveHour()},
			{"KB per hour", st.kbPerHour, a.BytesPerActiveHour() / 1024},
			{"hours per day", st.meanHours, a.MeanHoursPerActiveDay()},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("trial %d (%d records from day %d): %s = %v, Collect gives %v", trial, len(recs), base, c.name, c.got, c.want)
			}
		}
		if !st.active {
			t.Fatalf("trial %d: subscriber with %d records not active", trial, len(recs))
		}

		want := stats.NewCountingECDF()
		for _, h := range a.HoursPerActiveDay() {
			want.Add(int64(h))
		}
		if acc.hoursPerDay.N() != want.N() {
			t.Fatalf("trial %d: %d active days, Collect gives %d", trial, acc.hoursPerDay.N(), want.N())
		}
		for h := 0; h <= 24; h++ {
			if got, w := acc.hoursPerDay.At(float64(h)), want.At(float64(h)); got != w {
				t.Fatalf("trial %d: share of days with at most %d active hours = %v, Collect gives %v", trial, h, got, w)
			}
		}
	}
}
