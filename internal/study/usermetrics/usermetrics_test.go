package usermetrics

import (
	"testing"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
)

var (
	alice = subs.MustNew(1)
	bob   = subs.MustNew(2)
	watch = imei.MustNew(35332011, 1)
	phone = imei.MustNew(35733009, 1)
)

func at(day simtime.Day, hour, minute int) simtime.Instant {
	return day.Time().Add(time.Duration(hour)*time.Hour + time.Duration(minute)*time.Minute)
}

func rec(user subs.IMSI, dev imei.IMEI, t simtime.Instant, bytes int64) proxylog.Record {
	return proxylog.Record{Time: t, IMSI: user, IMEI: dev, Scheme: proxylog.HTTPS,
		Host: "h.example", BytesUp: bytes / 5, BytesDown: bytes - bytes/5}
}

func TestCollectActivity(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, watch, at(105, 8, 0), 1000),
		rec(alice, watch, at(105, 8, 30), 2000),
		rec(alice, watch, at(105, 9, 0), 500),
		rec(alice, watch, at(107, 20, 0), 700),
		rec(bob, phone, at(105, 10, 0), 9000),
	}
	acts := Collect(records, nil)
	a := acts[alice]
	if a == nil {
		t.Fatal("alice missing")
	}
	if a.Transactions != 4 || a.Bytes != 4200 {
		t.Fatalf("tx/bytes = %d/%d", a.Transactions, a.Bytes)
	}
	if a.ActiveDays() != 2 {
		t.Fatalf("active days = %d", a.ActiveDays())
	}
	if got := a.TotalActiveHours(); got != 3 {
		t.Fatalf("total active hours = %d", got)
	}
	if got := a.TxPerActiveHour(); got != 4.0/3.0 {
		t.Fatalf("tx/hour = %g", got)
	}
	if got := a.MeanHoursPerActiveDay(); got != 1.5 {
		t.Fatalf("hours/day = %g", got)
	}
	if got := a.DaysPerWeek(2); got != 1 {
		t.Fatalf("days/week = %g", got)
	}
	hpd := a.HoursPerActiveDay()
	if len(hpd) != 2 || hpd[0] != 2 || hpd[1] != 1 { // hours 8 and 9 on day 105, 20 on day 107
		t.Fatalf("hours per day = %v", hpd)
	}
	days := a.ActiveDaysList()
	if len(days) != 2 || days[0] != 105 || days[1] != 107 {
		t.Fatalf("days = %v", days)
	}
}

func TestCollectKeepFilter(t *testing.T) {
	records := []proxylog.Record{
		rec(alice, watch, at(105, 8, 0), 1000),
		rec(alice, phone, at(105, 9, 0), 5000),
	}
	acts := Collect(records, func(r proxylog.Record) bool { return r.IMEI == watch })
	if acts[alice].Transactions != 1 {
		t.Fatalf("filter leaked: %d tx", acts[alice].Transactions)
	}
}

func TestZeroActivityAccessors(t *testing.T) {
	a := &Activity{IMSI: alice}
	if a.TxPerActiveHour() != 0 || a.BytesPerActiveHour() != 0 || a.MeanHoursPerActiveDay() != 0 {
		t.Fatal("zero activity accessors not zero")
	}
	if a.DaysPerWeek(0) != 0 {
		t.Fatal("zero weeks mishandled")
	}
}

func TestTotalsFromUDR(t *testing.T) {
	records := []udr.Record{
		{Week: 15, IMSI: alice, IMEI: watch, Bytes: 1000, Transactions: 10},
		{Week: 15, IMSI: alice, IMEI: phone, Bytes: 99000, Transactions: 400},
		{Week: 16, IMSI: alice, IMEI: watch, Bytes: 500, Transactions: 4},
		{Week: 2, IMSI: alice, IMEI: phone, Bytes: 7777, Transactions: 11}, // outside window
		{Week: 15, IMSI: bob, IMEI: phone, Bytes: 5000, Transactions: 20},
	}
	isWear := func(d imei.IMEI) bool { return d == watch }
	totals := TotalsFromUDR(records, simtime.Detail(), isWear)

	a := totals[alice]
	if a.Bytes != 100500 || a.Transactions != 414 {
		t.Fatalf("alice totals = %d/%d", a.Bytes, a.Transactions)
	}
	if a.WearableBytes != 1500 || a.WearableTx != 14 {
		t.Fatalf("alice wearable = %d/%d", a.WearableBytes, a.WearableTx)
	}
	share := a.WearableShare()
	if share < 0.0149 || share > 0.015 {
		t.Fatalf("share = %g", share)
	}
	if totals[bob].WearableBytes != 0 {
		t.Fatal("bob has no wearable")
	}
	if (&Totals{}).WearableShare() != 0 {
		t.Fatal("zero totals share not 0")
	}
}
