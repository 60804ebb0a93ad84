package traffic

import (
	"math"
	"testing"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/mobility"
	"wearwild/internal/gen/population"
)

type fixture struct {
	gen  *Generator
	mob  *mobility.Generator
	pop  *population.Population
	root *randx.Rand
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	country := geo.DefaultCountry()
	topo, err := cells.Build(country, cells.Config{UrbanSectors: 400, RuralSectors: 150}, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := population.DefaultConfig()
	pcfg.WearableUsers = 600
	pcfg.OrdinaryUsers = 1200
	pop, err := population.Build(pcfg, country, topo, devicedb.Default(), apps.DefaultWithTail(), randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := New(apps.DefaultWithTail())
	if err != nil {
		t.Fatal(err)
	}
	mob, err := mobility.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{gen: gen, mob: mob, pop: pop, root: randx.New(99)}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil catalogue accepted")
	}
}

func TestInactiveUsersProduceNothing(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay)
	r := f.root.Split("t", 0)
	for _, u := range f.pop.WearableOwners() {
		if u.DataActive() {
			continue
		}
		visits := f.mob.AppendDayVisits(nil, u, day, r.Split("v", uint64(u.IMSI)))
		if recs := f.gen.AppendWearableDay(nil, u, day, visits, r.Split("w", uint64(u.IMSI)), &Scratch{}); recs != nil {
			t.Fatalf("non-data-active user produced %d records", len(recs))
		}
	}
	// Ordinary users have no wearable at all.
	u := f.pop.OrdinaryUsers()[0]
	if recs := f.gen.AppendWearableDay(nil, u, day, nil, r, &Scratch{}); recs != nil {
		t.Fatal("ordinary user produced wearable records")
	}
}

func TestRecordWellFormed(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay + 2)
	count := 0
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() {
			continue
		}
		r := f.root.Split("wf", uint64(i))
		visits := f.mob.AppendDayVisits(nil, u, day, r.Split("v", 0))
		for _, rec := range f.gen.AppendWearableDay(nil, u, day, visits, r.Split("t", 0), &Scratch{}) {
			if err := rec.Validate(); err != nil {
				t.Fatal(err)
			}
			if rec.IMSI != u.IMSI || rec.IMEI != u.WearableIMEI {
				t.Fatal("identity mismatch")
			}
			d := simtime.DayOf(rec.Time)
			if d != day {
				t.Fatalf("record on day %d, want %d", d, day)
			}
			count++
		}
	}
	if count == 0 {
		t.Fatal("no records at all")
	}
}

// activeStats simulates several weeks and gathers per-user activity.
func activeStats(t *testing.T, f *fixture) (daysPerWeek, hoursPerDay, txSizes []float64, txPerHour map[int][]float64) {
	t.Helper()
	txPerHour = map[int][]float64{}
	weeks := []simtime.Week{15, 16, 17, 18, 19, 20, 21}
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() {
			continue
		}
		activeDays := 0
		totalDays := 0
		var dayHours []int
		for _, w := range weeks {
			for dd := 0; dd < 7; dd++ {
				d := w.FirstDay() + simtime.Day(dd)
				r := f.root.Split("as", uint64(i)*1000+uint64(d))
				visits := f.mob.AppendDayVisits(nil, u, d, r.Split("v", 0))
				recs := f.gen.AppendWearableDay(nil, u, d, visits, r.Split("t", 0), &Scratch{})
				totalDays++
				if len(recs) == 0 {
					continue
				}
				activeDays++
				hours := map[int]bool{}
				for _, rec := range recs {
					hours[simtime.HourOf(rec.Time).OfDay()] = true
					txSizes = append(txSizes, float64(rec.Bytes()))
				}
				dayHours = append(dayHours, len(hours))
				txPerHour[len(hours)] = append(txPerHour[len(hours)], float64(len(recs))/float64(len(hours)))
			}
		}
		daysPerWeek = append(daysPerWeek, float64(activeDays)/float64(len(weeks)))
		for _, h := range dayHours {
			hoursPerDay = append(hoursPerDay, float64(h))
		}
	}
	return daysPerWeek, hoursPerDay, txSizes, txPerHour
}

func TestActivityTargets(t *testing.T) {
	f := newFixture(t)
	daysPerWeek, hoursPerDay, txSizes, _ := activeStats(t, f)

	ed := stats.NewECDF(daysPerWeek)
	// Paper: "users are active about 1 day a week" with 35% of weekly
	// actives active per day (≈2.4 days). Accept a band around that.
	if m := ed.Mean(); m < 0.8 || m > 2.8 {
		t.Fatalf("mean active days/week = %.2f", m)
	}

	eh := stats.NewECDF(hoursPerDay)
	if m := eh.Mean(); m < 2.0 || m > 4.2 {
		t.Fatalf("mean active hours/day = %.2f, want ≈3", m)
	}
	// 80% below 5 hours.
	if p := eh.At(5); p < 0.70 || p > 0.94 {
		t.Fatalf("P(hours ≤ 5) = %.2f, want ≈0.80", p)
	}
	// A tail above 10 hours exists (paper: 7%).
	if p := 1 - eh.At(10); p < 0.01 || p > 0.15 {
		t.Fatalf("P(hours > 10) = %.3f, want ≈0.07", p)
	}

	es := stats.NewECDF(txSizes)
	// Paper Fig 3(c): sharply centred around 3 KB; 80% carry <10 KB.
	if med := es.Quantile(0.5); med < 1800 || med > 4800 {
		t.Fatalf("median tx size = %.0f B, want ≈3000", med)
	}
	if p := es.At(10240); p < 0.70 || p > 0.95 {
		t.Fatalf("P(size ≤ 10KB) = %.2f, want ≈0.80", p)
	}
}

func TestActivityCorrelation(t *testing.T) {
	f := newFixture(t)
	_, _, _, txPerHour := activeStats(t, f)
	// Fig 3(d): more active hours per day → more transactions per hour.
	var xs, ys []float64
	for _, hours := range sortx.Keys(txPerHour) {
		var s stats.Summary
		for _, v := range txPerHour[hours] {
			s.Add(v)
		}
		if s.N() < 5 {
			continue
		}
		xs = append(xs, float64(hours))
		ys = append(ys, s.Mean())
	}
	if len(xs) < 4 {
		t.Skip("not enough hour buckets")
	}
	if rho := stats.Spearman(xs, ys); rho < 0.3 {
		t.Fatalf("hours-vs-tx/hour Spearman = %.2f, want clearly positive", rho)
	}
}

func TestOneAppPerDayDominates(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay + 3)
	oneApp, multi := 0, 0
	catalog := f.gen.Catalog()
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() {
			continue
		}
		for rep := 0; rep < 6; rep++ {
			r := f.root.Split("apps", uint64(i)*10+uint64(rep))
			visits := f.mob.AppendDayVisits(nil, u, day, r.Split("v", 0))
			recs := f.gen.AppendWearableDay(nil, u, day, visits, r.Split("t", 0), &Scratch{})
			if len(recs) == 0 {
				continue
			}
			appsSeen := map[string]bool{}
			for _, rec := range recs {
				if a, ok := catalog.AppOfHost(rec.Host); ok {
					appsSeen[a.Name] = true
				}
			}
			if len(appsSeen) == 1 {
				oneApp++
			} else if len(appsSeen) > 1 {
				multi++
			}
		}
	}
	frac := float64(oneApp) / float64(oneApp+multi)
	// Paper: 93% of users run only one app per day.
	if frac < 0.85 || frac > 0.99 {
		t.Fatalf("single-app day share = %.3f, want ≈0.93", frac)
	}
}

func TestSingleLocationGating(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay + 1) // a weekday
	checked := 0
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() || !u.SingleLocOnly {
			continue
		}
		r := f.root.Split("loc", uint64(i))
		visits := f.mob.AppendDayVisits(nil, u, day, r.Split("v", 0))
		recs := f.gen.AppendWearableDay(nil, u, day, visits, r.Split("t", 0), &Scratch{})
		for _, rec := range recs {
			hour := simtime.HourOf(rec.Time).OfDay()
			if got := sectorAt(visits, day, hour); got != u.HomeSector {
				t.Fatalf("single-location user %d transacted at sector %d (home %d) hour %d",
					i, got, u.HomeSector, hour)
			}
		}
		if len(recs) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no active single-location users this day")
	}
}

func TestWeekendCommuteShape(t *testing.T) {
	// The weekday profile must exceed the weekend one inside the commute
	// windows and the curves must be close elsewhere (Fig 3(a)).
	for _, h := range []int{5, 6, 7, 8, 17, 18, 19} {
		if Profile(false, h) <= Profile(true, h) {
			t.Fatalf("hour %d: weekday %.2f not above weekend %.2f", h, Profile(false, h), Profile(true, h))
		}
	}
	var wd, we float64
	for h := 10; h <= 15; h++ {
		wd += Profile(false, h)
		we += Profile(true, h)
	}
	if math.Abs(wd-we)/we > 0.25 {
		t.Fatalf("midday profiles diverge: weekday %.2f vs weekend %.2f", wd, we)
	}
}

func TestThirdPartyVolumeSameOrderOfMagnitude(t *testing.T) {
	f := newFixture(t)
	catalog := f.gen.Catalog()
	byKind := map[apps.DomainKind]float64{}
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() {
			continue
		}
		for dd := 0; dd < 14; dd++ {
			d := simtime.Day(simtime.DetailStartDay + dd)
			r := f.root.Split("3p", uint64(i)*100+uint64(dd))
			visits := f.mob.AppendDayVisits(nil, u, d, r.Split("v", 0))
			for _, rec := range f.gen.AppendWearableDay(nil, u, d, visits, r.Split("t", 0), &Scratch{}) {
				if kind, ok := catalog.SharedKind(rec.Host); ok {
					byKind[kind] += float64(rec.Bytes())
				} else {
					byKind[apps.KindApplication] += float64(rec.Bytes())
				}
			}
		}
	}
	app := byKind[apps.KindApplication]
	third := byKind[apps.KindUtilities] + byKind[apps.KindAdvertising] + byKind[apps.KindAnalytics]
	if app == 0 || third == 0 {
		t.Fatal("missing traffic on some kind")
	}
	ratio := app / third
	// Fig 8: same order of magnitude.
	if ratio < 1 || ratio > 10 {
		t.Fatalf("first/third party byte ratio = %.2f, want within one OOM", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay)
	var u *population.User
	for _, cand := range f.pop.WearableOwners() {
		if cand.DataActive() {
			u = cand
			break
		}
	}
	visits := f.mob.AppendDayVisits(nil, u, day, randx.New(5).Split("v", 0))
	a := f.gen.AppendWearableDay(nil, u, day, visits, randx.New(5).Split("t", 0), &Scratch{})
	b := f.gen.AppendWearableDay(nil, u, day, visits, randx.New(5).Split("t", 0), &Scratch{})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}
