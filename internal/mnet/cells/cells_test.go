package cells

import (
	"math"
	"testing"

	"wearwild/internal/geo"
	"wearwild/internal/randx"
)

func buildDefault(t testing.TB) *Topology {
	t.Helper()
	topo, err := Build(geo.DefaultCountry(), DefaultConfig(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildCounts(t *testing.T) {
	topo := buildDefault(t)
	cfg := DefaultConfig()
	want := cfg.UrbanSectors + cfg.RuralSectors
	// City rounding may shift the count by a handful.
	if topo.Len() < want-10 || topo.Len() > want+10 {
		t.Fatalf("sector count = %d, want ≈%d", topo.Len(), want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(geo.DefaultCountry(), Config{}, randx.New(1)); err == nil {
		t.Fatal("zero sectors accepted")
	}
	if _, err := Build(geo.DefaultCountry(), Config{UrbanSectors: -1, RuralSectors: 5}, randx.New(1)); err == nil {
		t.Fatal("negative sectors accepted")
	}
	bad := geo.DefaultCountry()
	bad.WidthKm = 0
	if _, err := Build(bad, DefaultConfig(), randx.New(1)); err == nil {
		t.Fatal("invalid country accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildDefault(t)
	b := buildDefault(t)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ across identical builds")
	}
	for i, s := range a.Sectors() {
		if b.Sectors()[i] != s {
			t.Fatalf("sector %d differs", i)
		}
	}
}

func TestSectorLookup(t *testing.T) {
	topo := buildDefault(t)
	s, ok := topo.Sector(1)
	if !ok || s.ID != 1 {
		t.Fatalf("sector 1 = %v, %v", s, ok)
	}
	if _, ok := topo.Sector(0); ok {
		t.Fatal("sector 0 resolved")
	}
	if _, ok := topo.Sector(SectorID(topo.Len() + 1)); ok {
		t.Fatal("out-of-range sector resolved")
	}
}

func TestUrbanDensity(t *testing.T) {
	topo := buildDefault(t)
	country := geo.DefaultCountry()
	capital := country.Cities[0]

	inCapital := 0
	for _, s := range topo.Sectors() {
		if geo.DistanceKm(s.Pos, capital.Center) <= capital.RadiusKm*2 {
			inCapital++
		}
	}
	// The capital holds 28% of city weight; its footprint is <1% of the
	// country area, so density must be far above uniform.
	areaFrac := (capital.RadiusKm * 2) * (capital.RadiusKm * 2) * 3.15 / (country.WidthKm * country.HeightKm)
	uniformShare := int(areaFrac * float64(topo.Len()))
	if inCapital < 5*uniformShare {
		t.Fatalf("capital sectors = %d, uniform expectation = %d: not dense", inCapital, uniformShare)
	}
	// City sectors carry their city name; rural do not.
	named, rural := 0, 0
	for _, s := range topo.Sectors() {
		if s.City != "" {
			named++
		} else {
			rural++
		}
	}
	if named == 0 || rural == 0 {
		t.Fatalf("named=%d rural=%d: both kinds must exist", named, rural)
	}
}

func TestNearestMatchesLinear(t *testing.T) {
	topo := buildDefault(t)
	r := randx.New(77)
	country := geo.DefaultCountry()
	for i := 0; i < 300; i++ {
		p := geo.Offset(country.Origin, r.Float64()*country.WidthKm, r.Float64()*country.HeightKm)
		fast := topo.Nearest(p)
		slow := topo.NearestLinear(p)
		if fast != slow {
			// Ties at identical distance are acceptable.
			sf, _ := topo.Sector(fast)
			ss, _ := topo.Sector(slow)
			df := geo.DistanceKm(p, sf.Pos)
			ds := geo.DistanceKm(p, ss.Pos)
			if df-ds > 1e-9 {
				t.Fatalf("point %v: grid %d at %.6f km, linear %d at %.6f km", p, fast, df, slow, ds)
			}
		}
	}
}

// nearestRef is gridIndex.nearest as it was before candidates were ranked
// by dot product: one haversine per candidate. TestNearestMatchesReference
// holds the fast lookup to its answers, misses included, because the
// generated MME logs depend on them.
func (g *gridIndex) nearestRef(sectors []Sector, p geo.Point) SectorID {
	if len(sectors) == 0 {
		return 0
	}
	r0, c0 := g.cellOf(p)
	best := -1
	bestD := math.Inf(1)
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
					d := geo.DistanceKm(p, sectors[i].Pos)
					if d < bestD {
						bestD = d
						best = i
						found = true
					} else {
						found = true
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

// TestNearestMatchesReference requires the dot-product ranking to return
// exactly the sector of the haversine-per-candidate scan on 1M seeded
// points: sector positions, midpoints of sector pairs (near-ties), 5 km
// and 50 km Gaussian offsets around sectors, and uniform points over the
// country and up to 200 km outside it.
func TestNearestMatchesReference(t *testing.T) {
	topo := buildDefault(t)
	country := geo.DefaultCountry()
	sectors := topo.Sectors()
	pick := func(r *randx.Rand) geo.Point { return sectors[r.IntN(len(sectors))].Pos }
	kinds := []struct {
		name  string
		point func(r *randx.Rand) geo.Point
	}{
		{"sector", pick},
		{"midpoint", func(r *randx.Rand) geo.Point {
			a, b := pick(r), pick(r)
			return geo.Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
		}},
		{"gauss5km", func(r *randx.Rand) geo.Point {
			return geo.Offset(pick(r), 5*r.NormFloat64(), 5*r.NormFloat64())
		}},
		{"gauss50km", func(r *randx.Rand) geo.Point {
			return geo.Offset(pick(r), 50*r.NormFloat64(), 50*r.NormFloat64())
		}},
		{"uniform", func(r *randx.Rand) geo.Point {
			const margin = 200
			return geo.Offset(country.Origin,
				-margin+r.Float64()*(country.WidthKm+2*margin),
				-margin+r.Float64()*(country.HeightKm+2*margin))
		}},
	}
	const perKind = 200_000
	for ki, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			r := randx.New(2024).Split(k.name, uint64(ki))
			for i := 0; i < perKind; i++ {
				p := k.point(r)
				if got, want := topo.Nearest(p), topo.grid.nearestRef(sectors, p); got != want {
					t.Fatalf("point %d %v: Nearest = %d, reference = %d", i, p, got, want)
				}
			}
		})
	}
}

func TestNearestOutsideBounds(t *testing.T) {
	topo := buildDefault(t)
	country := geo.DefaultCountry()
	// Far outside the country the query must still resolve.
	p := geo.Offset(country.Origin, -200, -200)
	fast := topo.Nearest(p)
	slow := topo.NearestLinear(p)
	if fast == 0 {
		t.Fatal("no sector found for outside point")
	}
	sf, _ := topo.Sector(fast)
	ss, _ := topo.Sector(slow)
	if geo.DistanceKm(p, sf.Pos)-geo.DistanceKm(p, ss.Pos) > 1e-9 {
		t.Fatal("outside-point nearest not optimal")
	}
}

func TestDistanceKm(t *testing.T) {
	topo := buildDefault(t)
	if topo.DistanceKm(1, 1) != 0 {
		t.Fatal("self distance not 0")
	}
	if topo.DistanceKm(0, 1) != 0 || topo.DistanceKm(1, SectorID(topo.Len()+5)) != 0 {
		t.Fatal("unknown sector distance not 0")
	}
	d12 := topo.DistanceKm(1, 2)
	d21 := topo.DistanceKm(2, 1)
	if d12 != d21 {
		t.Fatal("distance not symmetric")
	}
}

func TestTinyTopology(t *testing.T) {
	topo, err := Build(geo.DefaultCountry(), Config{UrbanSectors: 0, RuralSectors: 3}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 3 {
		t.Fatalf("len = %d", topo.Len())
	}
	p := topo.Sectors()[2].Pos
	if got := topo.Nearest(p); got != topo.Sectors()[2].ID {
		t.Fatalf("nearest to own position = %d", got)
	}
}

func BenchmarkNearestGrid(b *testing.B) {
	topo := buildDefault(b)
	country := geo.DefaultCountry()
	r := randx.New(3)
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Offset(country.Origin, r.Float64()*country.WidthKm, r.Float64()*country.HeightKm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Nearest(pts[i%len(pts)])
	}
}

func BenchmarkNearestLinear(b *testing.B) {
	topo := buildDefault(b)
	country := geo.DefaultCountry()
	r := randx.New(3)
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Offset(country.Origin, r.Float64()*country.WidthKm, r.Float64()*country.HeightKm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.NearestLinear(pts[i%len(pts)])
	}
}
