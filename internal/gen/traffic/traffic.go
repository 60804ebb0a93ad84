// Package traffic turns user state into network transactions: the wearable
// proxy-log records the application analysis consumes (Figs 3, 5–8), the
// weekly per-device usage aggregates behind the user-level comparisons
// (Fig 4(a/b)), and the sparse phone-side records that carry Through-Device
// companion traffic for the conclusion's fingerprinting experiment.
//
// Calibration targets planted here:
//
//   - active users average ≈1–2 active days/week and ≈3 active hours/day,
//     with 80% under 5 h and a 7% tail above 10 h (Fig 3(b));
//   - transaction sizes centre sharply on ≈3 KB with 80% under 10 KB
//     (Fig 3(c)); activity couples to per-hour transaction rate (Fig 3(d));
//   - 93% of active users run a single app per day (§4.3);
//   - wearable traffic is ~3 orders of magnitude below the owner's total
//     (Fig 4(b)) while owners out-consume the remaining customers by ≈26%
//     data and ≈48% transactions (Fig 4(a));
//   - third-party (utilities/advertising/analytics) volume is within the
//     same order of magnitude as first-party volume (Fig 8).
package traffic

import (
	"fmt"
	"math"
	"slices"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/mobility"
	"wearwild/internal/gen/population"
)

// Wearable activity calibration. A data-active wearable user produces
// traffic on a day with probability
// clamp(activeDayBase·engagement^activeDayExp, activeDayMin, activeDayMax),
// lifted by weekendBoost on weekends (§4.2).
const (
	activeDayBase = 0.16
	activeDayExp  = 0.8
	activeDayMin  = 0.02
	activeDayMax  = 0.85
	weekendBoost  = 1.15
)

// Active-hour and session calibration.
const (
	// hoursMedianBase is the median active hours on an active day for a
	// user at engagement 1; hoursSigma the lognormal spread.
	hoursMedianBase = 1.9
	hoursSigma      = 0.85

	// sessionsPerHour is the mean usage sessions per active hour at
	// engagement 1; sessionsEngExp is the engagement exponent that makes
	// highly active users also chattier per hour (the Fig 3(d)
	// correlation: activity is sustained, not bursty).
	sessionsPerHour = 0.95
	sessionsEngExp  = 0.55
	// multiAppDayProb is the probability an active day uses more than one
	// app (the paper: 93% use exactly one).
	multiAppDayProb = 0.07
)

// Transaction calibration.
const (
	// httpsShare is the fraction of transactions the proxy sees as TLS.
	httpsShare = 0.86
	// upShareMean is the mean uplink fraction of a transaction's bytes.
	upShareMean = 0.20

	// Byte scaling per domain kind relative to the app's base size.
	utilityBytesFactor   = 1.2
	adBytesFactor        = 0.5
	analyticsBytesFactor = 0.4
)

// Diurnal activity profiles: relative weights per hour of day. The weekday
// curve carries the commuting bumps at 4–9am and 4–8pm that Fig 3(a)
// reports as the only weekday/weekend difference.
var (
	weekdayProfile = [24]float64{
		0.20, 0.15, 0.10, 0.10, 0.30, 0.50, 0.80, 1.20,
		1.30, 1.00, 0.90, 0.90, 1.00, 0.90, 0.85, 0.90,
		1.10, 1.30, 1.35, 1.20, 1.00, 0.90, 0.60, 0.35,
	}
	weekendProfile = [24]float64{
		0.25, 0.20, 0.15, 0.10, 0.15, 0.20, 0.30, 0.50,
		0.70, 0.90, 1.00, 1.05, 1.05, 1.00, 0.95, 0.95,
		1.00, 1.05, 1.10, 1.15, 1.10, 1.00, 0.70, 0.40,
	}
)

// Profile returns the diurnal weight for an hour of day.
func Profile(weekend bool, hourOfDay int) float64 {
	if weekend {
		return weekendProfile[hourOfDay]
	}
	return weekdayProfile[hourOfDay]
}

// Generator produces traffic over one app catalogue.
type Generator struct {
	catalog *apps.Catalog
	// mixes caches one alias table per app for its domain-kind mix; the
	// table is immutable, so all workers share it. Apps whose mix has no
	// positive weight map to nil (their sessions emit nothing), matching
	// the per-session NewCategorical error path this cache replaced.
	mixes map[*apps.App]*randx.Categorical
	// shared holds each domain kind's shared-host pool, resolved once:
	// Catalog.SharedHosts copies its list on every call.
	shared [apps.NumDomainKinds][]string
}

// New returns a generator.
func New(catalog *apps.Catalog) (*Generator, error) {
	if catalog == nil || catalog.Len() == 0 {
		return nil, fmt.Errorf("traffic: empty catalogue")
	}
	mixes := make(map[*apps.App]*randx.Categorical, len(catalog.Apps()))
	for _, app := range catalog.Apps() {
		mix, err := randx.NewCategorical(app.Shape.Mix[:])
		if err != nil {
			mix = nil
		}
		mixes[app] = mix
	}
	g := &Generator{catalog: catalog, mixes: mixes}
	for kind := range g.shared {
		g.shared[kind] = catalog.SharedHosts(apps.DomainKind(kind))
	}
	return g, nil
}

// Scratch holds the per-worker buffers wearable-day generation reuses
// across days. The zero value is ready; buffers grow to the busiest day
// and stay there. A Scratch must not be shared between concurrent workers.
type Scratch struct {
	hours   []int
	idx     []int
	allowed []int
	weights []float64
	apps    []*apps.App
	perm    []int
}

// Catalog returns the generator's catalogue.
func (g *Generator) Catalog() *apps.Catalog { return g.catalog }

// activeDayProb is the probability a data-active user produces wearable
// traffic on the given day.
func activeDayProb(u *population.User, weekend bool) float64 {
	p := activeDayBase * math.Pow(u.Engagement, activeDayExp)
	if weekend {
		p *= weekendBoost
	}
	return clamp(p, activeDayMin, activeDayMax)
}

// AppendWearableDay appends past len(dst) the wearable's proxy
// transactions for one day. visits (the user's movement that day) gates
// single-location users: their transactions happen only while at the
// home sector. An inactive day appends nothing. Each generator sweep slot
// passes one Scratch to every day it generates, so a steady-state day
// allocates only when a session outgrows dst.
func (g *Generator) AppendWearableDay(dst []proxylog.Record, u *population.User, d simtime.Day,
	visits []mobility.Visit, r *randx.Rand, s *Scratch) []proxylog.Record {
	if !u.DataActive() || !u.WearableActiveOn(d) {
		return dst
	}
	weekend := d.IsWeekend()
	if !r.Bool(activeDayProb(u, weekend)) {
		return dst
	}

	// Active hours: lognormal around an engagement-scaled median.
	median := hoursMedianBase * math.Sqrt(u.Engagement)
	h := int(math.Round(r.LogNormalMedian(median, hoursSigma)))
	if h < 1 {
		h = 1
	}
	if h > 18 {
		h = 18
	}

	hours := g.pickHours(u, d, visits, h, weekend, r, s)
	if len(hours) == 0 {
		return dst
	}

	appsToday := g.pickApps(u, r, s)
	for _, hour := range hours {
		sessions := r.Poisson(sessionsPerHour * math.Pow(u.Engagement, sessionsEngExp))
		if sessions < 1 {
			sessions = 1
		}
		for sn := 0; sn < sessions; sn++ {
			app := appsToday[r.IntN(len(appsToday))]
			start := d.Time().
				Add(time.Duration(hour) * time.Hour).
				Add(time.Duration(r.IntN(3300)) * time.Second)
			dst = g.appendSession(dst, u, app, start, dayEnd(d), r)
		}
	}
	return dst
}

// pickHours selects distinct active hours of day, weighted by the diurnal
// profile, restricted to at-home hours for single-location users. The
// result lives in s and is valid until the next pickHours call.
func (g *Generator) pickHours(u *population.User, d simtime.Day, visits []mobility.Visit, n int, weekend bool, r *randx.Rand, s *Scratch) []int {
	allowed := s.allowed[:0]
	if u.SingleLocOnly {
		for hour := 0; hour < 24; hour++ {
			if atHomeThrough(visits, d, hour, u) {
				allowed = append(allowed, hour)
			}
		}
		// A degenerate itinerary (never home) falls back to all hours.
		if len(allowed) == 0 {
			for hour := 0; hour < 24; hour++ {
				allowed = append(allowed, hour)
			}
		}
	} else {
		for hour := 0; hour < 24; hour++ {
			allowed = append(allowed, hour)
		}
	}
	s.allowed = allowed
	if n > len(allowed) {
		n = len(allowed)
	}
	// The unrestricted case is the common one, and its weight vector is
	// exactly the static profile — reuse the shared alias table (the table
	// build is deterministic, so cached and per-day tables draw alike).
	cat := wearerHourPick(weekend)
	if len(allowed) < 24 {
		weights := s.weights[:0]
		for _, hour := range allowed {
			weights = append(weights, Profile(weekend, hour))
		}
		s.weights = weights
		c, err := randx.NewCategorical(weights)
		if err != nil {
			return nil
		}
		cat = c
	}
	s.idx = cat.SampleKInto(r, n, s.idx)
	hours := s.hours[:0]
	for _, j := range s.idx {
		hours = append(hours, allowed[j])
	}
	s.hours = hours
	return hours
}

// sectorAt returns the sector the user occupies at the start of the given
// hour according to the day's visits (0 when unknown).
func sectorAt(visits []mobility.Visit, d simtime.Day, hourOfDay int) cells.SectorID {
	at := d.Time().Add(time.Duration(hourOfDay) * time.Hour)
	var cur cells.SectorID
	for _, v := range visits {
		if v.Time > at {
			break
		}
		cur = v.Sector
	}
	return cur
}

// atHomeThrough reports whether the user is at the home sector for the
// window [hour, hour+75min) (capped at day end). Sessions started late in
// an hour drift a few minutes past it, so single-location gating needs the
// user settled at home slightly beyond the hour itself — otherwise the MME
// join would attribute the tail of a burst to a different sector.
func atHomeThrough(visits []mobility.Visit, d simtime.Day, hourOfDay int, u *population.User) bool {
	if sectorAt(visits, d, hourOfDay) != u.HomeSector {
		return false
	}
	start := d.Time().Add(time.Duration(hourOfDay) * time.Hour)
	end := start.Add(75 * time.Minute)
	end = min(end, (d + 1).Time())
	for _, v := range visits {
		if v.Time > start && v.Time < end && v.Sector != u.HomeSector {
			return false
		}
	}
	return true
}

// pickApps chooses the day's app set: one app for 93% of active days.
// The choice among the user's installed apps is uniform: global app
// popularity (Fig 5) already flows through the popularity-weighted install
// sets, and uniform daily rotation lets the number of apps observed over
// the study approach the installed count the paper reports (§4.3).
func (g *Generator) pickApps(u *population.User, r *randx.Rand, s *Scratch) []*apps.App {
	n := 1
	if r.Bool(multiAppDayProb) {
		n = 2 + r.IntN(2)
	}
	if n > len(u.InstalledApps) {
		n = len(u.InstalledApps)
	}
	s.perm = r.PermInto(s.perm, len(u.InstalledApps))
	out := s.apps[:0]
	for _, j := range s.perm[:n] {
		out = append(out, g.catalog.Apps()[u.InstalledApps[j]])
	}
	s.apps = out
	return out
}

// dayEnd is the last instant a transaction may carry while still belonging
// to the day; late-evening sessions clamp here so a day's traffic never
// bleeds into the next day's (or week's) accounting.
func dayEnd(d simtime.Day) simtime.Instant { return (d + 1).Time() - simtime.Instant(time.Second) }

// appendSession emits the transactions of one usage: bursts less than a
// minute apart, so the analysis-side sessioniser (gap ≥ 1 min) recovers
// them. The transaction count is drawn before the mix lookup so the stream
// advances identically whether or not the app's mix is degenerate.
func (g *Generator) appendSession(dst []proxylog.Record, u *population.User, app *apps.App, start, latest simtime.Instant, r *randx.Rand) []proxylog.Record {
	n := r.Poisson(app.Shape.TxPerUsage)
	if n < 1 {
		n = 1
	}
	mix := g.mixes[app]
	if mix == nil {
		return dst
	}
	dst = slices.Grow(dst, n)[:len(dst)]
	t := start
	for i := 0; i < n; i++ {
		t = min(t, latest)
		kind := apps.KindApplication
		if i > 0 { // the first transaction anchors on the app's own server
			kind = apps.DomainKind(mix.Sample(r))
		}
		dst = append(dst, g.transaction(u, app, kind, t, r))
		// Intra-session gap: 5–45 s keeps the burst under the 1-minute
		// sessionisation threshold.
		t = t.Add(time.Duration(5+r.IntN(41)) * time.Second)
	}
	return dst
}

// transaction builds one proxy record.
func (g *Generator) transaction(u *population.User, app *apps.App, kind apps.DomainKind, t simtime.Instant, r *randx.Rand) proxylog.Record {
	var host string
	factor := 1.0
	switch kind {
	case apps.KindApplication:
		host = app.Hosts[r.IntN(len(app.Hosts))]
	case apps.KindUtilities:
		pool := g.shared[apps.KindUtilities]
		host = pool[r.IntN(len(pool))]
		factor = utilityBytesFactor
	case apps.KindAdvertising:
		pool := g.shared[apps.KindAdvertising]
		host = pool[r.IntN(len(pool))]
		factor = adBytesFactor
	case apps.KindAnalytics:
		pool := g.shared[apps.KindAnalytics]
		host = pool[r.IntN(len(pool))]
		factor = analyticsBytesFactor
	}

	bytes := r.LogNormalMedian(app.Shape.TxBytes*factor, app.Shape.TxBytesSigma)
	if bytes < 200 {
		bytes = 200
	}
	up := int64(bytes * clamp(upShareMean+0.08*r.NormFloat64(), 0.03, 0.8))
	down := int64(bytes) - up
	if down < 0 {
		down = 0
	}

	scheme := proxylog.HTTPS
	path := ""
	// Payments always ride TLS; otherwise a fixed share is cleartext HTTP
	// where the proxy logs the full URL.
	if app.Class != apps.Payment && !r.Bool(httpsShare) {
		scheme = proxylog.HTTP
		path = httpPaths[r.IntN(len(httpPaths))]
	}

	durMs := 60 + bytes/25 + float64(r.IntN(120))
	return proxylog.Record{
		Time:      t,
		IMSI:      u.IMSI,
		IMEI:      u.WearableIMEI,
		Scheme:    scheme,
		Host:      host,
		Path:      path,
		BytesUp:   up,
		BytesDown: down,
		Duration:  time.Duration(durMs) * time.Millisecond,
	}
}

var httpPaths = []string{
	"/api/v1/sync",
	"/feed/latest",
	"/notify",
	"/assets/tile.png",
	"/update/check",
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
