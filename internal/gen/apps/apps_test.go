package apps

import (
	"testing"

	"wearwild/internal/randx"
)

func TestDefaultCatalogValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 50 {
		t.Fatalf("catalogue has %d apps, want the paper's 50", c.Len())
	}
}

func TestPaperRankOrder(t *testing.T) {
	c := Default()
	apps := c.Apps()
	// Fig 5(a) top three: Weather, Google-Maps, Accuweather.
	for i, want := range []string{"Weather", "Google-Maps", "Accuweather"} {
		if apps[i].Name != want {
			t.Fatalf("rank %d = %q, want %q", i, apps[i].Name, want)
		}
	}
	// The top-3 of Fig 5(a) also carry the three largest usage weights.
	for i := 3; i < len(apps); i++ {
		if apps[i].Shape.UsageWeight >= apps[2].Shape.UsageWeight {
			t.Fatalf("app %q outweighs the paper's top-3", apps[i].Name)
		}
	}
	// The span covers several orders of magnitude, as in the figure.
	ratio := apps[0].Shape.UsageWeight / apps[len(apps)-1].Shape.UsageWeight
	if ratio < 1000 {
		t.Fatalf("popularity span = %.0fx, want >1000x", ratio)
	}
	// Payment apps near the top of the rank (§5.1 observation).
	sp, _ := c.ByName("Samsung-Pay")
	ap, _ := c.ByName("Android-Pay")
	if sp.Rank > 12 || ap.Rank > 12 {
		t.Fatalf("payment ranks %d/%d not near top", sp.Rank, ap.Rank)
	}
}

func TestLookups(t *testing.T) {
	c := Default()
	app, ok := c.ByName("WhatsApp")
	if !ok {
		t.Fatal("WhatsApp missing")
	}
	if app.Category != Communication {
		t.Fatalf("WhatsApp category = %s", app.Category)
	}
	for _, h := range app.Hosts {
		got, ok := c.AppOfHost(h)
		if !ok || got != app {
			t.Fatalf("host %q resolves to %v", h, got)
		}
	}
	if _, ok := c.ByName("Nonexistent"); ok {
		t.Fatal("phantom app resolved")
	}
	if _, ok := c.AppOfHost("unknown.example.com"); ok {
		t.Fatal("phantom host resolved")
	}
}

func TestSharedHostsClassified(t *testing.T) {
	c := Default()
	for _, kind := range []DomainKind{KindUtilities, KindAdvertising, KindAnalytics} {
		hosts := c.SharedHosts(kind)
		if len(hosts) == 0 {
			t.Fatalf("no shared hosts of kind %s", kind)
		}
		for _, h := range hosts {
			got, ok := c.SharedKind(h)
			if !ok || got != kind {
				t.Fatalf("host %q kind = %v, %v", h, got, ok)
			}
			if _, firstParty := c.AppOfHost(h); firstParty {
				t.Fatalf("shared host %q also first-party", h)
			}
		}
	}
	if hosts := c.SharedHosts(KindApplication); hosts != nil {
		t.Fatal("KindApplication must have no shared pool")
	}
	if _, ok := c.SharedKind("api.weather.app"); ok {
		t.Fatal("first-party host classified as shared")
	}
}

func TestCategoryCensus(t *testing.T) {
	by := make(map[Category][]*App)
	for _, a := range Default().Apps() {
		by[a.Category] = append(by[a.Category], a)
	}
	// Communication must have the largest roster (7 apps) — it drives the
	// category's top user rank in Fig 6(a).
	if got := len(by[Communication]); got < 6 {
		t.Fatalf("Communication has %d apps", got)
	}
	// Health & Fitness exists but is low-popularity on cellular.
	hf := by[HealthFitness]
	if len(hf) == 0 {
		t.Fatal("no Health-Fitness apps")
	}
	for _, a := range hf {
		if a.Rank < 25 {
			t.Fatalf("Health-Fitness app %q at rank %d: should be tail", a.Name, a.Rank)
		}
	}
	// Every category in Fig 6 is populated.
	for _, cat := range Categories() {
		if len(by[cat]) == 0 {
			t.Fatalf("category %s empty", cat)
		}
	}
}

func TestPerUsageShapeTargets(t *testing.T) {
	c := Default()
	dataPerUsage := func(name string) float64 {
		a, ok := c.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return a.Shape.TxPerUsage * a.Shape.TxBytes
	}
	// Fig 7: WhatsApp, Deezer, Snapchat lead data per usage; messengers and
	// payment apps sit at the tail.
	heavy := []string{"WhatsApp", "Deezer", "Snapchat"}
	light := []string{"Messenger", "Samsung-Pay", "TrueCaller", "Uber"}
	for _, h := range heavy {
		for _, l := range light {
			if dataPerUsage(h) < 5*dataPerUsage(l) {
				t.Fatalf("%s (%.0f B/usage) not ≫ %s (%.0f B/usage)", h, dataPerUsage(h), l, dataPerUsage(l))
			}
		}
	}
	// Notification apps have more transactions per usage than payment apps
	// despite less data.
	msgr, _ := c.ByName("Messenger")
	pay, _ := c.ByName("Samsung-Pay")
	if msgr.Shape.TxPerUsage <= pay.Shape.TxPerUsage {
		t.Fatal("Messenger should out-transact Samsung-Pay per usage")
	}
}

func TestSampling(t *testing.T) {
	c := Default()
	r := randx.New(42)
	counts := make([]int, c.Len())
	const n = 100000
	for i := 0; i < n; i++ {
		idx := c.SampleApp(r)
		if idx < 0 || idx >= c.Len() {
			t.Fatalf("sample out of range: %d", idx)
		}
		counts[idx]++
	}
	// Rank 0 must be sampled roughly 1/decay times as often as rank 1.
	r01 := float64(counts[0]) / float64(counts[1])
	if r01 < 1.05 || r01 > 1.45 {
		t.Fatalf("rank0/rank1 sample ratio = %.2f, want ≈1.20", r01)
	}

	install := c.SampleInstall(r, 8)
	if len(install) != 8 {
		t.Fatalf("install set size = %d", len(install))
	}
	seen := map[int]bool{}
	for _, i := range install {
		if seen[i] {
			t.Fatal("duplicate install")
		}
		seen[i] = true
	}
}

func TestClassStringAndKindString(t *testing.T) {
	if Notification.String() != "notification" || Payment.String() != "payment" {
		t.Fatal("class strings wrong")
	}
	if KindApplication.String() != "Application" || KindAnalytics.String() != "Analytics" {
		t.Fatal("kind strings wrong")
	}
	if TrafficClass(99).String() == "" || DomainKind(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}
