package population

import (
	"math"
	"testing"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"

	"wearwild/internal/gen/apps"
)

func buildTestPop(t testing.TB, cfg Config) *Population {
	t.Helper()
	country := geo.DefaultCountry()
	topo, err := cells.Build(country, cells.Config{UrbanSectors: 400, RuralSectors: 150}, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := Build(cfg, country, topo, devicedb.Default(), apps.DefaultWithTail(), randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.WearableUsers = 1200
	cfg.OrdinaryUsers = 2400
	return cfg
}

func TestValidateRejects(t *testing.T) {
	bad := DefaultConfig()
	bad.WearableUsers = 0
	if bad.Validate() == nil {
		t.Fatal("zero wearable users accepted")
	}
	bad = DefaultConfig()
	bad.MonthlyGrowth = 1.5
	if bad.Validate() == nil {
		t.Fatal("growth > 1 accepted")
	}
	bad = DefaultConfig()
	bad.OwnerMobilityBoost = 0
	if bad.Validate() == nil {
		t.Fatal("zero mobility boost accepted")
	}
}

func TestPopulationShape(t *testing.T) {
	cfg := smallConfig()
	pop := buildTestPop(t, cfg)
	if len(pop.Users) != cfg.WearableUsers+cfg.OrdinaryUsers {
		t.Fatalf("users = %d", len(pop.Users))
	}
	if len(pop.WearableOwners()) != cfg.WearableUsers {
		t.Fatal("owner partition wrong")
	}
	for _, u := range pop.WearableOwners() {
		if !u.OwnsWearable() {
			t.Fatal("owner without wearable")
		}
		if u.WearableModel.Class != devicedb.WearableSIM {
			t.Fatal("owner's wearable is not a wearable model")
		}
		if u.PhoneIMEI == 0 {
			t.Fatal("owner without phone")
		}
		if len(u.InstalledApps) == 0 {
			t.Fatal("owner without installed apps")
		}
	}
	for _, u := range pop.OrdinaryUsers() {
		if u.OwnsWearable() {
			t.Fatal("ordinary user with SIM wearable")
		}
		if u.PhoneIMEI == 0 {
			t.Fatal("user without phone")
		}
	}
}

func TestIdentitiesUnique(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	imsis := map[uint64]bool{}
	imeis := map[uint64]bool{}
	for _, u := range pop.Users {
		if imsis[uint64(u.IMSI)] {
			t.Fatal("duplicate IMSI")
		}
		imsis[uint64(u.IMSI)] = true
		for _, id := range []uint64{uint64(u.PhoneIMEI), uint64(u.WearableIMEI)} {
			if id == 0 {
				continue
			}
			if imeis[id] {
				t.Fatal("duplicate IMEI")
			}
			imeis[id] = true
		}
	}
}

func TestDataActiveShare(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	owners := pop.WearableOwners()
	active := 0
	for _, u := range owners {
		if u.DataActive() {
			active++
		}
	}
	frac := float64(active) / float64(len(owners))
	// Paper: 34% of SIM-wearable users generate any traffic.
	if frac < 0.28 || frac > 0.41 {
		t.Fatalf("data-active share = %.3f, want ≈0.34", frac)
	}
}

func TestAdoptionCurve(t *testing.T) {
	cfg := smallConfig()
	pop := buildTestPop(t, cfg)
	countOn := func(d simtime.Day) int {
		n := 0
		for _, u := range pop.WearableOwners() {
			if u.WearableActiveOn(d) {
				n++
			}
		}
		return n
	}
	first := countOn(0)
	last := countOn(simtime.StudyDays - 1)
	growth := float64(last)/float64(first) - 1
	// Paper: ≈9% over five months.
	if growth < 0.05 || growth > 0.13 {
		t.Fatalf("growth over window = %.3f, want ≈0.09", growth)
	}
	// Roughly linear: midpoint close to average of ends.
	mid := countOn(simtime.StudyDays / 2)
	wantMid := float64(first+last) / 2
	if math.Abs(float64(mid)-wantMid) > 0.03*wantMid {
		t.Fatalf("midpoint count %d, want ≈%.0f", mid, wantMid)
	}
}

func TestChurnTargetsFirstWeekUsers(t *testing.T) {
	cfg := smallConfig()
	pop := buildTestPop(t, cfg)
	churned, firstWeek := 0, 0
	for _, u := range pop.WearableOwners() {
		if u.AdoptDay < simtime.DaysPerWeek {
			firstWeek++
			if u.ChurnDay != NeverChurns {
				churned++
				if u.ChurnDay < simtime.DaysPerWeek || u.ChurnDay >= simtime.StudyDays-simtime.DaysPerWeek {
					t.Fatalf("churn day %d outside (first week, last week)", u.ChurnDay)
				}
			}
		} else if u.ChurnDay != NeverChurns {
			t.Fatal("late adopter churned")
		}
	}
	frac := float64(churned) / float64(firstWeek)
	if frac < 0.04 || frac > 0.10 {
		t.Fatalf("churn fraction = %.3f, want ≈0.07", frac)
	}
}

func TestInstallDistribution(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	var counts []float64
	over20, over80 := 0, 0
	for _, u := range pop.WearableOwners() {
		n := len(u.InstalledApps)
		counts = append(counts, float64(n))
		if n >= 20 {
			over20++
		}
		if n > 80 {
			over80++
		}
	}
	var sum float64
	for _, c := range counts {
		sum += c
	}
	mean := sum / float64(len(counts))
	// Paper: mean 8 apps, 90% below 20, a heavy tail.
	if mean < 6 || mean > 10.5 {
		t.Fatalf("mean installs = %.2f, want ≈8", mean)
	}
	fracUnder20 := 1 - float64(over20)/float64(len(counts))
	if fracUnder20 < 0.84 || fracUnder20 > 0.97 {
		t.Fatalf("share under 20 = %.3f, want ≈0.90", fracUnder20)
	}
	_ = over80 // tail existence is probabilistic at this n; not asserted
}

func TestEngagementAndMobilityBoost(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	meanOf := func(users []*User, f func(*User) float64) float64 {
		var s float64
		for _, u := range users {
			s += f(u)
		}
		return s / float64(len(users))
	}
	// Exclude TD users from the ordinary mean: they are boosted by design.
	var plain []*User
	for _, u := range pop.OrdinaryUsers() {
		if !u.ThroughDevice {
			plain = append(plain, u)
		}
	}
	engOwner := meanOf(pop.WearableOwners(), func(u *User) float64 { return u.Engagement })
	engPlain := meanOf(plain, func(u *User) float64 { return u.Engagement })
	if engOwner < engPlain*1.1 {
		t.Fatalf("owner engagement %.3f not above ordinary %.3f", engOwner, engPlain)
	}
	mobOwner := meanOf(pop.WearableOwners(), func(u *User) float64 { return u.MobilityScale })
	mobPlain := meanOf(plain, func(u *User) float64 { return u.MobilityScale })
	if mobOwner < mobPlain*1.5 {
		t.Fatalf("owner mobility %.3f not ≈2x ordinary %.3f", mobOwner, mobPlain)
	}
}

func TestThroughDeviceShare(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	td, fp := 0, 0
	for _, u := range pop.OrdinaryUsers() {
		if u.ThroughDevice {
			td++
			if u.TDFingerprint != "" {
				fp++
				found := false
				for _, svc := range TDFingerprintServices {
					if svc == u.TDFingerprint {
						found = true
					}
				}
				if !found {
					t.Fatalf("unknown fingerprint service %q", u.TDFingerprint)
				}
			}
		} else if u.TDFingerprint != "" {
			t.Fatal("non-TD user with fingerprint")
		}
	}
	tdFrac := float64(td) / float64(len(pop.OrdinaryUsers()))
	if tdFrac < 0.10 || tdFrac > 0.20 {
		t.Fatalf("TD share = %.3f, want ≈0.15", tdFrac)
	}
	fpFrac := float64(fp) / float64(td)
	if fpFrac < 0.09 || fpFrac > 0.25 {
		t.Fatalf("fingerprintable share = %.3f, want ≈0.16", fpFrac)
	}
}

func TestGeographyAnchors(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	bounds := pop.Country.Bounds()
	for _, u := range pop.Users[:200] {
		if u.HomeSector == 0 || u.WorkSector == 0 {
			t.Fatal("missing sector anchors")
		}
		if !bounds.Contains(u.Home) {
			// Homes are near cities inside the country; gaussian scatter
			// may nudge slightly out, but far outside is a bug.
			d := geo.DistanceKm(u.Home, pop.Country.Cities[0].Center)
			if d > pop.Country.WidthKm {
				t.Fatalf("home absurdly far: %v", u.Home)
			}
		}
		wantKm := u.CommuteKm
		gotKm := geo.DistanceKm(u.Home, u.Work)
		if math.Abs(gotKm-wantKm) > 0.05*wantKm+0.5 {
			t.Fatalf("commute distance %.2f, want %.2f", gotKm, wantKm)
		}
	}
}

// TestAnchorSectorsAreNearest pins the invariant mobility relies on when it
// reuses the anchors instead of looking them up again: every user's home
// and work sectors are the topology's nearest sectors to those points.
func TestAnchorSectorsAreNearest(t *testing.T) {
	pop := buildTestPop(t, smallConfig())
	topo := pop.Topo
	for _, u := range pop.Users {
		if got, want := u.HomeSector, topo.Nearest(u.Home); got != want {
			t.Fatalf("user %v: HomeSector = %d, Nearest(Home) = %d", u.IMSI, got, want)
		}
		if got, want := u.WorkSector, topo.Nearest(u.Work); got != want {
			t.Fatalf("user %v: WorkSector = %d, Nearest(Work) = %d", u.IMSI, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	a := buildTestPop(t, cfg)
	b := buildTestPop(t, cfg)
	for i := range a.Users {
		ua, ub := a.Users[i], b.Users[i]
		if ua.IMSI != ub.IMSI || ua.WearableIMEI != ub.WearableIMEI ||
			ua.Engagement != ub.Engagement || ua.AdoptDay != ub.AdoptDay ||
			ua.ChurnDay != ub.ChurnDay || len(ua.InstalledApps) != len(ub.InstalledApps) {
			t.Fatalf("user %d differs across identical builds", i)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	country := geo.DefaultCountry()
	topo, _ := cells.Build(country, cells.Config{RuralSectors: 5}, randx.New(1))
	cfg := smallConfig()
	if _, err := Build(cfg, country, nil, devicedb.Default(), apps.Default(), randx.New(1)); err == nil {
		t.Fatal("nil topology accepted")
	}
	emptyDB := devicedb.New()
	if _, err := Build(cfg, country, topo, emptyDB, apps.Default(), randx.New(1)); err == nil {
		t.Fatal("empty device DB accepted")
	}
	bad := cfg
	bad.OrdinaryUsers = -1
	if _, err := Build(bad, country, topo, devicedb.Default(), apps.Default(), randx.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
