package mobility

import (
	"testing"
	"time"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
)

type fixture struct {
	gen *Generator
	pop *population.Population
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	country := geo.DefaultCountry()
	topo, err := cells.Build(country, cells.Config{UrbanSectors: 500, RuralSectors: 200}, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := population.DefaultConfig()
	cfg.WearableUsers = 400
	cfg.OrdinaryUsers = 800
	pop, err := population.Build(cfg, country, topo, devicedb.Default(), apps.DefaultWithTail(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{gen: gen, pop: pop}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestDayVisitsBasics(t *testing.T) {
	f := newFixture(t)
	u := f.pop.WearableOwners()[0]
	r := randx.New(9).Split("day", 1)
	visits := f.gen.AppendDayVisits(nil, u, simtime.Day(108), r) // a Thursday in detail window

	if len(visits) < 2 {
		t.Fatalf("weekday itinerary has %d visits", len(visits))
	}
	day := simtime.Day(108).Time()
	for i, v := range visits {
		if v.Sector == 0 {
			t.Fatal("visit without sector")
		}
		if v.Time < day || v.Time >= day.Add(26*60*60*1e9) {
			t.Fatalf("visit %d time %v outside day", i, v.Time)
		}
		if i > 0 {
			if v.Time < visits[i-1].Time {
				t.Fatal("visits not chronological")
			}
			if v.Sector == visits[i-1].Sector {
				t.Fatal("consecutive duplicate sectors survived")
			}
		}
	}
	// First visit of the day is at home.
	if visits[0].Sector != u.HomeSector {
		t.Fatalf("day starts at sector %d, home is %d", visits[0].Sector, u.HomeSector)
	}
}

func TestWeekdayTouchesWork(t *testing.T) {
	f := newFixture(t)
	hits := 0
	const n = 120
	for i := 0; i < n; i++ {
		u := f.pop.WearableOwners()[i%50]
		r := randx.New(31).Split("wd", uint64(i))
		visits := f.gen.AppendDayVisits(nil, u, simtime.Day(107), r) // Wednesday
		for _, v := range visits {
			if v.Sector == u.WorkSector {
				hits++
				break
			}
		}
	}
	// Commutes should reach the work sector in the large majority of
	// weekday itineraries (jitter may land on a neighbouring sector).
	if hits < n*6/10 {
		t.Fatalf("work sector reached in only %d/%d weekdays", hits, n)
	}
}

func TestDeterminism(t *testing.T) {
	f := newFixture(t)
	u := f.pop.WearableOwners()[3]
	a := f.gen.AppendDayVisits(nil, u, simtime.Day(110), randx.New(8).Split("d", 42))
	b := f.gen.AppendDayVisits(nil, u, simtime.Day(110), randx.New(8).Split("d", 42))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d differs", i)
		}
	}
}

func TestOwnerDisplacementTargets(t *testing.T) {
	f := newFixture(t)
	dispOf := func(users []*population.User, salt uint64) []float64 {
		var out []float64
		for i, u := range users {
			// Average the user's displacement over several days, like the
			// paper's per-user daily average.
			var sum float64
			days := []simtime.Day{105, 106, 107, 108, 109, 110, 111}
			for _, d := range days {
				r := randx.New(77).Split("disp", salt+uint64(i)*1000+uint64(d))
				sum += f.gen.MaxDisplacementKm(f.gen.AppendDayVisits(nil, u, d, r))
			}
			out = append(out, sum/float64(len(days)))
		}
		return out
	}
	owners := dispOf(f.pop.WearableOwners(), 1)
	var plain []*population.User
	for _, u := range f.pop.OrdinaryUsers() {
		if !u.ThroughDevice {
			plain = append(plain, u)
		}
	}
	rest := dispOf(plain, 2)

	eOwner := stats.NewECDF(owners)
	eRest := stats.NewECDF(rest)

	// Paper: owners move ~20 km/day on average and 90% below ~30 km.
	if m := eOwner.Mean(); m < 12 || m > 30 {
		t.Fatalf("owner mean displacement = %.1f km, want ≈20", m)
	}
	if p90 := eOwner.Quantile(0.9); p90 < 20 || p90 > 55 {
		t.Fatalf("owner p90 displacement = %.1f km, want ≈30", p90)
	}
	// Owners ≈2x the remaining customers.
	ratio := eOwner.Mean() / eRest.Mean()
	if ratio < 1.5 || ratio > 3.2 {
		t.Fatalf("owner/rest displacement ratio = %.2f, want ≈2", ratio)
	}
}

func TestEntropyGap(t *testing.T) {
	f := newFixture(t)
	entropyOf := func(u *population.User, salt uint64) float64 {
		// Time-weighted sector entropy over a simulated week.
		dwell := map[cells.SectorID]float64{}
		for d := simtime.Day(105); d < 112; d++ {
			r := randx.New(13).Split("ent", salt+uint64(d))
			visits := f.gen.AppendDayVisits(nil, u, d, r)
			for i, v := range visits {
				end := d.Time().Add(24 * 60 * 60 * 1e9)
				if i+1 < len(visits) {
					end = visits[i+1].Time
				}
				dwell[v.Sector] += time.Duration(end - v.Time).Hours()
			}
		}
		var w []float64
		for _, sec := range sortx.Keys(dwell) {
			w = append(w, dwell[sec])
		}
		return stats.Entropy(w)
	}
	var owner, rest stats.Summary
	for i, u := range f.pop.WearableOwners()[:150] {
		owner.Add(entropyOf(u, uint64(i)))
	}
	count := 0
	for i, u := range f.pop.OrdinaryUsers() {
		if u.ThroughDevice {
			continue
		}
		rest.Add(entropyOf(u, uint64(1000+i)))
		count++
		if count == 150 {
			break
		}
	}
	// Paper: +70% location entropy for SIM-wearable users. Allow a wide
	// band; the direction and rough magnitude are what matter.
	gain := owner.Mean()/rest.Mean() - 1
	if gain < 0.25 {
		t.Fatalf("owner entropy gain = %.2f, want substantial (paper: 0.70)", gain)
	}
}

// TestVisitsStayWithinDay: no itinerary may bleed past midnight — per-day
// analyses key on the visit's calendar day.
func TestVisitsStayWithinDay(t *testing.T) {
	f := newFixture(t)
	for i, u := range f.pop.WearableOwners()[:80] {
		for _, d := range []simtime.Day{105, 110, 111, 153} {
			r := randx.New(55).Split("wd", uint64(i)*1000+uint64(d))
			dayStart := d.Time()
			dayEnd := dayStart.Add(24 * 60 * 60 * 1e9)
			for _, v := range f.gen.AppendDayVisits(nil, u, d, r) {
				if v.Time < dayStart || v.Time >= dayEnd {
					t.Fatalf("user %d day %d: visit at %v outside day", i, d, v.Time)
				}
			}
		}
	}
}

func TestRecords(t *testing.T) {
	f := newFixture(t)
	u := f.pop.WearableOwners()[0]
	visits := f.gen.AppendDayVisits(nil, u, simtime.Day(120), randx.New(3).Split("r", 0))
	recs := AppendRecords(nil, u, u.WearableIMEI, visits)
	if len(recs) != len(visits) {
		t.Fatalf("records = %d, visits = %d", len(recs), len(visits))
	}
	if recs[0].Event != mme.Attach {
		t.Fatal("first record not an attach")
	}
	for i, rec := range recs {
		if rec.IMSI != u.IMSI || rec.IMEI != u.WearableIMEI {
			t.Fatal("identity mismatch")
		}
		if rec.Sector != visits[i].Sector || rec.Time != visits[i].Time {
			t.Fatal("visit mapping mismatch")
		}
		if i > 0 && rec.Event != mme.Update {
			t.Fatal("subsequent record not an update")
		}
	}
	if AppendRecords(nil, u, u.WearableIMEI, nil) != nil {
		t.Fatal("empty visits must yield no records")
	}
}

func TestMaxDisplacementKm(t *testing.T) {
	f := newFixture(t)
	if got := f.gen.MaxDisplacementKm(nil); got != 0 {
		t.Fatalf("empty displacement = %g", got)
	}
	u := f.pop.WearableOwners()[1]
	visits := f.gen.AppendDayVisits(nil, u, simtime.Day(115), randx.New(4).Split("m", 0))
	d := f.gen.MaxDisplacementKm(visits)
	if d < 0 {
		t.Fatal("negative displacement")
	}
	// Must be at least the home-work sector distance on weekdays when both
	// were visited.
	sawWork := false
	for _, v := range visits {
		if v.Sector == u.WorkSector {
			sawWork = true
		}
	}
	if sawWork {
		hw := f.gen.MaxDisplacementKm([]Visit{{Sector: u.HomeSector}, {Sector: u.WorkSector}})
		if d+1e-9 < hw {
			t.Fatalf("displacement %.2f below home-work distance %.2f", d, hw)
		}
	}
}
