// Package usermetrics aggregates per-subscriber activity from the proxy
// log and per-subscriber volume totals from the UDR log: the raw material
// of the paper's §4.2–4.3 user-behaviour analysis and the Fig 4(a/b)
// owner-vs-rest comparisons.
package usermetrics

import (
	"sort"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
)

// Activity is one subscriber's transaction activity over a window.
type Activity struct {
	IMSI         subs.IMSI
	Transactions int64
	Bytes        int64
	// hours[d] is the set of active hours-of-day on day d.
	hours map[simtime.Day]map[int]struct{}
}

// ActiveDays returns the number of days with at least one transaction.
func (a *Activity) ActiveDays() int { return len(a.hours) }

// ActiveDaysList returns the active days, sorted.
func (a *Activity) ActiveDaysList() []simtime.Day {
	out := make([]simtime.Day, 0, len(a.hours))
	for d := range a.hours {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DaysPerWeek returns average active days per week over the given number
// of weeks.
func (a *Activity) DaysPerWeek(weeks int) float64 {
	if weeks <= 0 {
		return 0
	}
	return float64(a.ActiveDays()) / float64(weeks)
}

// HoursPerActiveDay lists the active-hour counts of each active day.
func (a *Activity) HoursPerActiveDay() []float64 {
	out := make([]float64, 0, len(a.hours))
	for _, d := range a.ActiveDaysList() {
		out = append(out, float64(len(a.hours[d])))
	}
	return out
}

// TotalActiveHours returns the total distinct (day, hour) cells touched.
func (a *Activity) TotalActiveHours() int {
	n := 0
	for _, hs := range a.hours {
		n += len(hs)
	}
	return n
}

// TxPerActiveHour returns the mean transactions per active hour.
func (a *Activity) TxPerActiveHour() float64 {
	h := a.TotalActiveHours()
	if h == 0 {
		return 0
	}
	return float64(a.Transactions) / float64(h)
}

// BytesPerActiveHour returns the mean bytes per active hour.
func (a *Activity) BytesPerActiveHour() float64 {
	h := a.TotalActiveHours()
	if h == 0 {
		return 0
	}
	return float64(a.Bytes) / float64(h)
}

// MeanHoursPerActiveDay returns the mean active hours across active days.
func (a *Activity) MeanHoursPerActiveDay() float64 {
	if len(a.hours) == 0 {
		return 0
	}
	return float64(a.TotalActiveHours()) / float64(len(a.hours))
}

// Collect accumulates per-subscriber activity over the records accepted by
// keep (nil keeps everything).
func Collect(records []proxylog.Record, keep func(proxylog.Record) bool) map[subs.IMSI]*Activity {
	out := make(map[subs.IMSI]*Activity)
	for _, rec := range records {
		if keep != nil && !keep(rec) {
			continue
		}
		a := out[rec.IMSI]
		if a == nil {
			a = &Activity{IMSI: rec.IMSI, hours: make(map[simtime.Day]map[int]struct{})}
			out[rec.IMSI] = a
		}
		h := simtime.HourOf(rec.Time)
		d := h.Day()
		hs := a.hours[d]
		if hs == nil {
			hs = make(map[int]struct{}, 4)
			a.hours[d] = hs
		}
		hs[h.OfDay()] = struct{}{}
		a.Transactions++
		a.Bytes += rec.Bytes()
	}
	return out
}

// Totals is one subscriber's volume across all devices, with the wearable
// share broken out.
type Totals struct {
	IMSI          subs.IMSI
	Bytes         int64
	Transactions  int64
	WearableBytes int64
	WearableTx    int64
}

// WearableShare returns the wearable fraction of the user's bytes.
func (t *Totals) WearableShare() float64 {
	if t.Bytes == 0 {
		return 0
	}
	return float64(t.WearableBytes) / float64(t.Bytes)
}

// TotalsFromUDR folds UDR records inside the window into per-subscriber
// totals; isWearable classifies devices.
func TotalsFromUDR(records []udr.Record, window simtime.Window, isWearable func(imei.IMEI) bool) map[subs.IMSI]*Totals {
	out := make(map[subs.IMSI]*Totals)
	for _, rec := range records {
		if !window.Contains(rec.Week.FirstDay()) {
			continue
		}
		t := out[rec.IMSI]
		if t == nil {
			t = &Totals{IMSI: rec.IMSI}
			out[rec.IMSI] = t
		}
		t.Bytes += rec.Bytes
		t.Transactions += rec.Transactions
		if isWearable != nil && isWearable(rec.IMEI) {
			t.WearableBytes += rec.Bytes
			t.WearableTx += rec.Transactions
		}
	}
	return out
}
