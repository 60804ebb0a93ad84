// Package mobility generates daily movement itineraries over the sector
// map: a home-work commuting loop on weekdays (the 4–9am / 4–8pm bumps of
// Fig 3(a)), plus engagement-scaled leisure trips and an occasional
// long-range excursion that gives the max-displacement distribution its
// tail (Fig 4(c)). Itineraries convert directly into MME records.
package mobility

import (
	"fmt"
	"math"
	"slices"
	"time"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"

	"wearwild/internal/gen/population"
)

// Config holds the movement parameters.
type Config struct {
	// LeisureTripMeanWeekday/Weekend are the mean numbers of discretionary
	// trips per day, before engagement scaling.
	LeisureTripMeanWeekday float64
	LeisureTripMeanWeekend float64
	// TripKmMedian/TripKmSigma shape the lognormal leisure-trip radius,
	// before the user's mobility scale.
	TripKmMedian float64
	TripKmSigma  float64
	// LongTripProb is the per-day probability of a long-range excursion
	// of at least LongTripKmMin km (Pareto shape LongTripAlpha).
	LongTripProb  float64
	LongTripKmMin float64
	LongTripAlpha float64
	// MaxCommuteStops bounds the intermediate sector updates recorded
	// along a commute leg.
	MaxCommuteStops int
}

// DefaultConfig returns movement parameters calibrated with the population
// defaults to the paper's mobility findings.
func DefaultConfig() Config {
	return Config{
		LeisureTripMeanWeekday: 0.5,
		LeisureTripMeanWeekend: 1.2,
		TripKmMedian:           3.5,
		TripKmSigma:            0.8,
		LongTripProb:           0.015,
		LongTripKmMin:          50,
		LongTripAlpha:          2.2,
		MaxCommuteStops:        3,
	}
}

// Validate rejects out-of-range parameters.
func (c Config) Validate() error {
	if c.TripKmMedian <= 0 || c.TripKmSigma <= 0 {
		return fmt.Errorf("mobility: trip distribution parameters must be positive")
	}
	if c.LongTripProb < 0 || c.LongTripProb > 1 {
		return fmt.Errorf("mobility: LongTripProb outside [0,1]")
	}
	if c.LongTripKmMin <= 0 || c.LongTripAlpha <= 0 {
		return fmt.Errorf("mobility: long-trip parameters must be positive")
	}
	if c.LeisureTripMeanWeekday < 0 || c.LeisureTripMeanWeekend < 0 {
		return fmt.Errorf("mobility: negative leisure trip mean")
	}
	if c.MaxCommuteStops < 0 {
		return fmt.Errorf("mobility: negative MaxCommuteStops")
	}
	return nil
}

// Visit is one stop in a day's itinerary.
type Visit struct {
	Time   time.Time
	Sector cells.SectorID
	Pos    geo.Point
}

// Generator produces itineraries over one topology.
type Generator struct {
	topo *cells.Topology
	cfg  Config
}

// New returns a generator.
func New(topo *cells.Topology, cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if topo == nil || topo.Len() == 0 {
		return nil, fmt.Errorf("mobility: empty topology")
	}
	return &Generator{topo: topo, cfg: cfg}, nil
}

// DayVisits returns the chronological, per-sector-deduplicated visits of a
// user on a day. The itinerary is derived only from (user, day, stream),
// so every device the user carries sees the same movement.
func (g *Generator) DayVisits(u *population.User, d simtime.Day, r *randx.Rand) []Visit {
	return g.AppendDayVisits(nil, u, d, r)
}

// AppendDayVisits is DayVisits writing past len(dst): the generator sweep
// passes a per-worker slab reset each day, so itinerary generation costs no
// allocation once the slab has grown to the user's busiest day. Only
// dst[len(dst):] is sorted and deduplicated; earlier entries are untouched.
// Visits at home or work take u.HomeSector and u.WorkSector as given, so
// those must be topo.Nearest(u.Home) and topo.Nearest(u.Work), as
// population.Build sets them.
func (g *Generator) AppendDayVisits(dst []Visit, u *population.User, d simtime.Day, r *randx.Rand) []Visit {
	day := d.Time()
	base := len(dst)
	dst = append(dst, Visit{Time: day.Add(5 * time.Minute), Sector: u.HomeSector, Pos: u.Home}) // midnight-ish at home

	if !d.IsWeekend() && u.Employed {
		// Morning commute, departures peaking 7–9 (Fig 3(a) bump).
		leave := (6.5 + 2*r.Float64()) * 60
		dst = g.appendCommuteLeg(dst, u.Home, u.Work, u.WorkSector, leave, day, r)
		// Optional midday errand near work.
		if r.Bool(poissonAsProb(g.cfg.LeisureTripMeanWeekday * engagementScale(u))) {
			dst = g.appendTrip(dst, u, u.Work, u.WorkSector, (12+2*r.Float64())*60, day, r)
		}
		// Evening commute, 4–8pm window.
		back := (16.5 + 2.5*r.Float64()) * 60
		dst = g.appendCommuteLeg(dst, u.Work, u.Home, u.HomeSector, back, day, r)
	} else if !d.IsWeekend() {
		// Non-commuters: occasional daytime leisure trips from home.
		trips := r.Poisson(g.cfg.LeisureTripMeanWeekday * 1.5 * engagementScale(u))
		start := 9 * 60.0
		for i := 0; i < trips && start < 20*60; i++ {
			dst = g.appendTrip(dst, u, u.Home, u.HomeSector, start, day, r)
			start += (2 + 3*r.Float64()) * 60
		}
	} else {
		trips := r.Poisson(g.cfg.LeisureTripMeanWeekend * engagementScale(u))
		start := 10 * 60.0
		for i := 0; i < trips && start < 20*60; i++ {
			dst = g.appendTrip(dst, u, u.Home, u.HomeSector, start, day, r)
			start += (2 + 3*r.Float64()) * 60
		}
	}

	// Occasional long-range excursion regardless of weekday. Its distance
	// is set by geography (visiting another city), not the user's local
	// movement scale.
	if r.Bool(g.cfg.LongTripProb * math.Min(engagementScale(u), 2)) {
		dist := r.Pareto(g.cfg.LongTripKmMin, g.cfg.LongTripAlpha)
		dst = g.appendExcursion(dst, u.Home, u.HomeSector, dist, (10+4*r.Float64())*60, day, r)
	}

	// Late-evening legs must not bleed into the next day: a visit carries
	// its day's identity through every downstream per-day analysis.
	lastInstant := day.Add(24*time.Hour - time.Second)
	for i := base; i < len(dst); i++ {
		if dst[i].Time.After(lastInstant) {
			dst[i].Time = lastInstant
		}
	}

	return canonicalizeTail(dst, base)
}

// engagementScale couples trip counts to the user's latent engagement,
// producing the displacement-activity correlation of Fig 4(d).
func engagementScale(u *population.User) float64 {
	s := math.Sqrt(u.Engagement * math.Max(u.MobilityScale, 1e-6))
	if s < 0.2 {
		s = 0.2
	}
	if s > 4 {
		s = 4
	}
	return s
}

// poissonAsProb converts a small mean count to a Bernoulli probability.
func poissonAsProb(mean float64) float64 { return 1 - math.Exp(-mean) }

// appendCommuteLeg emits the intermediate and final sectors of one commute
// leg departing at the given minute of day; toSector is to's sector. The
// stop count is known before the loop, so dst grows at most once.
func (g *Generator) appendCommuteLeg(dst []Visit, from, to geo.Point, toSector cells.SectorID, departMin float64, day time.Time, r *randx.Rand) []Visit {
	dist := geo.DistanceKm(from, to)
	stops := int(dist / 8)
	if stops > g.cfg.MaxCommuteStops {
		stops = g.cfg.MaxCommuteStops
	}
	legMinutes := 10 + dist // ~1 min/km plus overhead
	dst = slices.Grow(dst, stops+1)[:len(dst)]
	for i := 1; i <= stops; i++ {
		f := float64(i) / float64(stops+1)
		p := interpolate(from, to, f)
		p = geo.Offset(p, r.NormFloat64()*1.5, r.NormFloat64()*1.5) // off the straight line
		dst = append(dst, Visit{
			Time:   day.Add(time.Duration((departMin + f*legMinutes) * float64(time.Minute))),
			Sector: g.topo.Nearest(p),
			Pos:    p,
		})
	}
	return append(dst, Visit{
		Time:   day.Add(time.Duration((departMin + legMinutes) * float64(time.Minute))),
		Sector: toSector,
		Pos:    to,
	})
}

// interpolate walks fraction f of the way between two points.
func interpolate(a, b geo.Point, f float64) geo.Point {
	return geo.Point{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}

// appendTrip goes somewhere near the anchor, whose sector is anchorSector,
// and comes back.
func (g *Generator) appendTrip(dst []Visit, u *population.User, anchor geo.Point, anchorSector cells.SectorID, startMin float64, day time.Time, r *randx.Rand) []Visit {
	dist := r.LogNormalMedian(g.cfg.TripKmMedian, g.cfg.TripKmSigma) * math.Max(u.MobilityScale, 0.3)
	return g.appendExcursion(dst, anchor, anchorSector, dist, startMin, day, r)
}

// appendExcursion visits a point dist km away and returns to the anchor,
// whose sector is anchorSector.
func (g *Generator) appendExcursion(dst []Visit, anchor geo.Point, anchorSector cells.SectorID, dist, startMin float64, day time.Time, r *randx.Rand) []Visit {
	angle := r.Float64() * 2 * math.Pi
	dest := geo.Offset(anchor, dist*math.Cos(angle), dist*math.Sin(angle))
	stay := 30 + 90*r.Float64() // minutes
	travel := 10 + dist
	return append(dst,
		Visit{Time: day.Add(time.Duration((startMin + travel) * float64(time.Minute))), Sector: g.topo.Nearest(dest), Pos: dest},
		Visit{Time: day.Add(time.Duration((startMin + travel + stay) * float64(time.Minute))), Sector: anchorSector, Pos: anchor},
	)
}

// visitCmp orders visits chronologically; ties keep insertion order under a
// stable sort, which downstream per-day analyses rely on.
func visitCmp(a, b Visit) int { return a.Time.Compare(b.Time) }

// canonicalizeTail sorts v[base:] chronologically in place and drops
// consecutive repeats of the same sector, truncating v accordingly.
func canonicalizeTail(v []Visit, base int) []Visit {
	tail := v[base:]
	if len(tail) == 0 {
		return v
	}
	slices.SortStableFunc(tail, visitCmp)
	out := tail[:1]
	for _, next := range tail[1:] {
		if next.Sector != out[len(out)-1].Sector {
			out = append(out, next)
		}
	}
	return v[:base+len(out)]
}

// Records converts a day's visits into MME records for one device: the
// first visit is an Attach, the rest are Updates.
func Records(u *population.User, dev imei.IMEI, visits []Visit) []mme.Record {
	if len(visits) == 0 {
		return nil
	}
	return AppendRecords(make([]mme.Record, 0, len(visits)), u, dev, visits)
}

// AppendRecords is Records appending into a caller slab; the visit count
// bounds the growth to at most one reallocation.
func AppendRecords(dst []mme.Record, u *population.User, dev imei.IMEI, visits []Visit) []mme.Record {
	dst = slices.Grow(dst, len(visits))[:len(dst)]
	for i, v := range visits {
		ev := mme.Update
		if i == 0 {
			ev = mme.Attach
		}
		dst = append(dst, mme.Record{
			Time:   v.Time,
			IMSI:   u.IMSI,
			IMEI:   dev,
			Sector: v.Sector,
			Event:  ev,
		})
	}
	return dst
}

// MaxDisplacementKm returns the greatest pairwise distance between the
// sectors of a day's visits — the paper's max-displacement metric, computed
// on positions the same way the analysis later computes it on sectors.
func (g *Generator) MaxDisplacementKm(visits []Visit) float64 {
	var max float64
	for i := 0; i < len(visits); i++ {
		for j := i + 1; j < len(visits); j++ {
			if d := g.topo.DistanceKm(visits[i].Sector, visits[j].Sector); d > max {
				max = d
			}
		}
	}
	return max
}
