package apps

import (
	"fmt"
	"math"
	"strings"

	"wearwild/internal/randx"
)

// Shared third-party hosts. These are contacted by many apps, which is why
// host-only attribution fails for them and the identifier falls back to
// timeframe correlation (§3.3).
var (
	utilityHosts = []string{
		"edge.cachefront.net",
		"static.contentwave.com",
		"img.fastedge.io",
		"dl.updatehub.net",
	}
	advertisingHosts = []string{
		"ads.mobiserve.com",
		"banner.adgrid.io",
		"track.clickmint.net",
	}
	analyticsHosts = []string{
		"metrics.appinsight.io",
		"events.statsbeam.com",
		"crash.reportly.net",
	}
)

// popularityDecay is the per-rank multiplier of usage weight. Fig 5(a)
// spans roughly five orders of magnitude across 50 apps; 0.83^49 ≈ 1e-4.
const popularityDecay = 0.83

// spec is the compact per-app definition the catalogue is built from.
type spec struct {
	name    string
	cat     Category
	class   TrafficClass
	hosts   []string // first-party; generated from the name when empty
	txPer   float64  // override: mean transactions per usage
	txBytes float64  // override: median bytes per transaction
	sigma   float64  // override: lognormal sigma
	// weight overrides the rank-derived usage weight (relative to the top
	// app at 1.0). The head of the catalogue uses explicit weights so
	// both the Fig 5(a) app ranking AND the Fig 6 category ranking hold:
	// Weather/Google-Maps/Accuweather lead individually, while the many
	// mid-weight Communication and Shopping apps let those categories
	// lead the union-of-users ranking.
	weight float64
}

// catalogSpecs lists the paper's apps in the order of Fig 5(a): that order
// IS the popularity rank. Anonymised names are kept as the paper printed
// them. Two placement notes: the paper counts the tap-and-go payment apps
// among its Shopping discussion, so Samsung-Pay/Android-Pay carry the
// Shopping category here; browsers ship under Communication on Google
// Play, hence Opera-Mini.
var catalogSpecs = []spec{
	{name: "Weather", cat: Weather, class: Notification, txPer: 9, txBytes: 3200, weight: 1.0},
	{name: "Google-Maps", cat: MapsNav, class: Browsing, txBytes: 5200, weight: 0.88},
	{name: "Accuweather", cat: Weather, class: Notification, txPer: 10, txBytes: 3400, weight: 0.78},
	{name: "Flipboard", cat: NewsMagazines, class: Browsing, txBytes: 7000, weight: 0.40},
	{name: "YouTube", cat: Entertainment, class: Streaming, txBytes: 38000, weight: 0.36},
	{name: "Messenger", cat: Communication, class: Notification, txPer: 13, txBytes: 2000, weight: 0.75},
	{name: "Google-App", cat: Tools, class: Browsing, txBytes: 4500, weight: 0.16},
	{name: "Facebook", cat: Social, class: Browsing, txBytes: 6500, weight: 0.60},
	{name: "Samsung-Pay", cat: Shopping, class: Payment, weight: 0.50},
	{name: "Android-Pay", cat: Shopping, class: Payment, weight: 0.44},
	{name: "Roaming-App", cat: Tools, class: Notification, txPer: 7, txBytes: 1500, weight: 0.10},
	{name: "WhatsApp", cat: Communication, class: Streaming, txPer: 10, txBytes: 26000, sigma: 1.2, weight: 0.58},
	{name: "Outlook", cat: Productivity, class: Notification, txPer: 11, txBytes: 2300, weight: 0.12},
	{name: "Street-View", cat: MapsNav, class: Browsing, txBytes: 9000, weight: 0.09},
	{name: "MMS", cat: Communication, class: Sync, txPer: 3, txBytes: 15000, weight: 0.20},
	{name: "Twitter", cat: Social, class: Browsing, txBytes: 5200, weight: 0.28},
	{name: "Skype", cat: Communication, class: Voice, weight: 0.18},
	{name: "S-Voice", cat: Tools, class: Voice, txBytes: 8000, weight: 0.045},
	{name: "Ebay", cat: Shopping, class: Browsing, txBytes: 5600, weight: 0.26},
	{name: "Spotify", cat: MusicAudio, class: Streaming, txBytes: 42000, weight: 0.035},
	{name: "News-App-1", cat: NewsMagazines, class: Notification, txPer: 8, txBytes: 2600},
	{name: "Opera-Mini", cat: Communication, class: Browsing, txBytes: 6200, weight: 0.14},
	{name: "Dropbox", cat: Productivity, class: Sync, txBytes: 14000},
	{name: "News-App-3", cat: NewsMagazines, class: Notification, txBytes: 2500},
	{name: "Snapchat", cat: Social, class: Streaming, txPer: 8, txBytes: 30000, sigma: 1.2, weight: 0.20},
	{name: "OneDrive", cat: Productivity, class: Sync, txBytes: 13000},
	{name: "Amazon", cat: Shopping, class: Browsing, txBytes: 6800, weight: 0.18},
	{name: "PayPal", cat: Finance, class: Payment},
	{name: "Metro", cat: NewsMagazines, class: Browsing, txBytes: 5400},
	{name: "Tools-App-2", cat: Tools, class: Sync, txBytes: 7000},
	{name: "Bank-App-1", cat: Finance, class: Notification, txPer: 5, txBytes: 2200},
	{name: "S-Health", cat: HealthFitness, class: Sync, txPer: 4, txBytes: 4500},
	{name: "Deezer", cat: MusicAudio, class: Streaming, txPer: 9, txBytes: 52000, sigma: 1.1},
	{name: "Viber", cat: Communication, class: Voice},
	{name: "Netflix", cat: Entertainment, class: Streaming, txBytes: 60000},
	{name: "Tools-App-1", cat: Tools, class: Sync, txBytes: 6000},
	{name: "Travel-App", cat: TravelLocal, class: Browsing, txBytes: 8200},
	{name: "News-App-2", cat: NewsMagazines, class: Notification, txBytes: 2400},
	{name: "Golf-NAVI", cat: Sports, class: Browsing, txBytes: 7800},
	{name: "Navigation-App", cat: MapsNav, class: Browsing, txBytes: 7600},
	{name: "TrueCaller", cat: Communication, class: Notification, txPer: 6, txBytes: 1700},
	{name: "Reddit", cat: Social, class: Browsing, txBytes: 5000},
	{name: "Uber", cat: TravelLocal, class: Notification, txPer: 5, txBytes: 1900},
	{name: "Bank-App-2", cat: Finance, class: Notification, txPer: 6, txBytes: 2400},
	{name: "Nike-Running", cat: HealthFitness, class: Sync, txPer: 4, txBytes: 5200},
	{name: "Sweatcoin", cat: HealthFitness, class: Sync, txPer: 5, txBytes: 3600},
	{name: "Daily-Star", cat: NewsMagazines, class: Browsing, txBytes: 5800},
	{name: "Badoo", cat: Lifestyle, class: Browsing, txBytes: 4600},
	{name: "Bank-App-3", cat: Finance, class: Notification, txPer: 4, txBytes: 2000},
	{name: "TV-Guide", cat: Entertainment, class: Notification, txPer: 5, txBytes: 2100},
}

// hostSlug lowercases an app name into a DNS label.
func hostSlug(name string) string {
	s := strings.ToLower(name)
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

// Catalog is the resolved application catalogue with host indexes.
type Catalog struct {
	apps   []*App
	byName map[string]*App
	byHost map[string]*App       // first-party host -> app
	shared map[string]DomainKind // third-party host -> kind
	usage  *randx.Categorical    // usage-weight sampler over app index
}

// Default builds the standard catalogue.
func Default() *Catalog {
	c := &Catalog{
		byName: make(map[string]*App),
		byHost: make(map[string]*App),
		shared: make(map[string]DomainKind),
	}
	for _, h := range utilityHosts {
		c.shared[h] = KindUtilities
	}
	for _, h := range advertisingHosts {
		c.shared[h] = KindAdvertising
	}
	for _, h := range analyticsHosts {
		c.shared[h] = KindAnalytics
	}

	weights := make([]float64, len(catalogSpecs))
	for rank, s := range catalogSpecs {
		shape := defaultShape(s.class)
		if s.txPer > 0 {
			shape.TxPerUsage = s.txPer
		}
		if s.txBytes > 0 {
			shape.TxBytes = s.txBytes
		}
		if s.sigma > 0 {
			shape.TxBytesSigma = s.sigma
		}
		w := math.Pow(popularityDecay, float64(rank))
		if s.weight > 0 {
			w = s.weight
		}
		shape.UsageWeight = w
		weights[rank] = w

		hosts := s.hosts
		if len(hosts) == 0 {
			slug := hostSlug(s.name)
			hosts = []string{"api." + slug + ".app", "push." + slug + ".app"}
		}
		app := &App{
			Name:     s.name,
			Category: s.cat,
			Class:    s.class,
			Rank:     rank,
			Hosts:    hosts,
			Shape:    shape,
		}
		c.apps = append(c.apps, app)
		c.byName[app.Name] = app
		for _, h := range hosts {
			if prev, taken := c.byHost[h]; taken {
				panic(fmt.Sprintf("apps: host %q claimed by both %q and %q", h, prev.Name, app.Name))
			}
			if _, sharedHost := c.shared[h]; sharedHost {
				panic(fmt.Sprintf("apps: host %q is both first-party and shared", h))
			}
			c.byHost[h] = app
		}
	}
	c.usage = randx.MustCategorical(weights)
	return c
}

// Len returns the number of apps.
func (c *Catalog) Len() int { return len(c.apps) }

// Apps returns all apps in rank order. Callers must not mutate the slice.
func (c *Catalog) Apps() []*App { return c.apps }

// ByName resolves an app by display name.
func (c *Catalog) ByName(name string) (*App, bool) {
	a, ok := c.byName[name]
	return a, ok
}

// AppOfHost resolves a first-party host to its app.
func (c *Catalog) AppOfHost(host string) (*App, bool) {
	a, ok := c.byHost[host]
	return a, ok
}

// SharedKind resolves a shared third-party host to its domain kind.
func (c *Catalog) SharedKind(host string) (DomainKind, bool) {
	k, ok := c.shared[host]
	return k, ok
}

// SharedHosts returns the shared hosts of one kind, in declaration order.
func (c *Catalog) SharedHosts(kind DomainKind) []string {
	var src []string
	switch kind {
	case KindUtilities:
		src = utilityHosts
	case KindAdvertising:
		src = advertisingHosts
	case KindAnalytics:
		src = analyticsHosts
	default:
		return nil
	}
	return append([]string(nil), src...)
}

// SampleApp draws an app index weighted by usage popularity.
func (c *Catalog) SampleApp(r *randx.Rand) int { return c.usage.Sample(r) }

// SampleInstall draws k distinct app indices weighted by popularity: the
// install set of a new device.
func (c *Catalog) SampleInstall(r *randx.Rand, k int) []int { return c.usage.SampleKInto(r, k, nil) }

// Validate checks catalogue invariants: unique names, unique first-party
// hosts, sane shapes, and full category coverage.
func (c *Catalog) Validate() error {
	if len(c.apps) == 0 {
		return fmt.Errorf("apps: empty catalogue")
	}
	seenCat := make(map[Category]bool)
	for i, a := range c.apps {
		if a.Rank != i {
			return fmt.Errorf("apps: %q rank %d at index %d", a.Name, a.Rank, i)
		}
		if len(a.Hosts) == 0 {
			return fmt.Errorf("apps: %q has no hosts", a.Name)
		}
		s := a.Shape
		if s.UsageWeight <= 0 || s.TxPerUsage <= 0 || s.TxBytes <= 0 || s.TxBytesSigma <= 0 {
			return fmt.Errorf("apps: %q has a non-positive shape parameter %+v", a.Name, s)
		}
		var mixSum float64
		for _, p := range s.Mix {
			if p < 0 {
				return fmt.Errorf("apps: %q has negative mix entry", a.Name)
			}
			mixSum += p
		}
		if math.Abs(mixSum-1) > 1e-9 {
			return fmt.Errorf("apps: %q mix sums to %g", a.Name, mixSum)
		}
		seenCat[a.Category] = true
	}
	for _, cat := range Categories() {
		if !seenCat[cat] {
			return fmt.Errorf("apps: category %s has no apps", cat)
		}
	}
	return nil
}
