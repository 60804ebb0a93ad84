package mobmetrics

import (
	"maps"
	"math"
	"sort"
	"testing"
	"time"

	"wearwild/internal/gen/sim"
	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"
)

var (
	alice = subs.MustNew(1)
	bob   = subs.MustNew(2)
	watch = imei.MustNew(35332011, 1)
	phone = imei.MustNew(35733009, 1)
)

func buildTopo(t testing.TB) *cells.Topology {
	t.Helper()
	topo, err := cells.Build(geo.DefaultCountry(), cells.Config{UrbanSectors: 200, RuralSectors: 100}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func at(day simtime.Day, hour int) simtime.Instant {
	return day.Time().Add(time.Duration(hour) * time.Hour)
}

func mrec(user subs.IMSI, dev imei.IMEI, t simtime.Instant, sector cells.SectorID) mme.Record {
	ev := mme.Update
	return mme.Record{Time: t, IMSI: user, IMEI: dev, Sector: sector, Event: ev}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestCollectDisplacementAndEntropy(t *testing.T) {
	topo := buildTopo(t)
	a, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	d := simtime.Day(110)
	records := []mme.Record{
		mrec(alice, watch, at(d, 0), 1),
		mrec(alice, watch, at(d, 8), 2),
		mrec(alice, watch, at(d, 18), 1),
		// A second day with no movement.
		mrec(alice, watch, at(d+1, 0), 1),
		// Bob never moves.
		mrec(bob, phone, at(d, 0), 5),
	}
	mob := a.Collect(records, simtime.Detail(), nil)

	am := mob[alice]
	if am == nil {
		t.Fatal("alice missing")
	}
	want := topo.DistanceKm(1, 2)
	if math.Abs(am.DailyMaxKm[d]-want) > 1e-9 {
		t.Fatalf("day disp = %g, want %g", am.DailyMaxKm[d], want)
	}
	if am.DailyMaxKm[d+1] != 0 {
		t.Fatalf("stationary day disp = %g", am.DailyMaxKm[d+1])
	}
	if am.Stationary() {
		t.Fatal("alice reported stationary")
	}
	if am.Sectors != 2 {
		t.Fatalf("sectors = %d", am.Sectors)
	}
	// Dwell: sector1 8h + 6h + 24h = 38h, sector2 10h. Entropy strictly
	// between 0 and 1 bit, below uniform.
	if am.Entropy <= 0 || am.Entropy >= 1 {
		t.Fatalf("entropy = %g", am.Entropy)
	}
	meanDisp := am.MeanDailyMaxKm()
	if math.Abs(meanDisp-want/2) > 1e-9 {
		t.Fatalf("mean disp = %g", meanDisp)
	}

	bm := mob[bob]
	if !bm.Stationary() || bm.Entropy != 0 || bm.Sectors != 1 {
		t.Fatalf("bob = %+v", bm)
	}
}

func TestCollectWindowAndFilter(t *testing.T) {
	topo := buildTopo(t)
	a, _ := New(topo)
	records := []mme.Record{
		mrec(alice, watch, at(10, 8), 1), // outside detail window
		mrec(alice, phone, at(110, 8), 2),
		mrec(alice, watch, at(110, 9), 3),
	}
	mob := a.Collect(records, simtime.Detail(), func(r mme.Record) bool { return r.IMEI == watch })
	am := mob[alice]
	if am == nil || am.Sectors != 1 {
		t.Fatalf("filtered mobility = %+v", am)
	}
	if _, ok := am.DailyMaxKm[10]; ok {
		t.Fatal("out-of-window day included")
	}
}

func TestEmptyMobility(t *testing.T) {
	m := &Mobility{IMSI: alice}
	if m.MeanDailyMaxKm() != 0 || !m.Stationary() {
		t.Fatal("empty mobility accessors wrong")
	}
}

func TestTxSectors(t *testing.T) {
	d := simtime.Day(110)
	mmeRecs := []mme.Record{
		mrec(alice, watch, at(d, 7), 1),
		mrec(alice, watch, at(d, 12), 2),
		// Previous-day context must not leak into the next day.
		mrec(bob, phone, at(d, 23), 7),
	}
	tx := func(user subs.IMSI, t simtime.Instant) proxylog.Record {
		return proxylog.Record{Time: t, IMSI: user, IMEI: watch, Scheme: proxylog.HTTPS,
			Host: "h.example", BytesUp: 1, BytesDown: 1}
	}
	proxyRecs := []proxylog.Record{
		tx(alice, at(d, 8)),            // sector 1
		tx(alice, at(d, 13)),           // sector 2
		tx(alice, at(d, 14)),           // sector 2
		tx(alice, at(d, 6)),            // before any context: dropped
		tx(bob, at(d+1, 5)),            // stale cross-day context: dropped
		tx(subs.MustNew(99), at(d, 9)), // no MME at all: dropped
	}
	got := TxSectors(mmeRecs, proxyRecs, nil, nil)
	am := got[alice]
	if am[1] != 1 || am[2] != 2 {
		t.Fatalf("alice tx sectors = %v", am)
	}
	if len(got[bob]) != 0 {
		t.Fatalf("bob tx sectors = %v", got[bob])
	}
	if _, ok := got[subs.MustNew(99)]; ok {
		t.Fatal("contextless user present")
	}
}

func TestTxSectorsFilters(t *testing.T) {
	d := simtime.Day(110)
	mmeRecs := []mme.Record{
		mrec(alice, watch, at(d, 7), 1),
		mrec(alice, phone, at(d, 9), 2),
	}
	proxyRecs := []proxylog.Record{
		{Time: at(d, 10), IMSI: alice, IMEI: watch, Scheme: proxylog.HTTPS, Host: "h", BytesUp: 1, BytesDown: 1},
		{Time: at(d, 10), IMSI: alice, IMEI: phone, Scheme: proxylog.HTTPS, Host: "h", BytesUp: 1, BytesDown: 1},
	}
	got := TxSectors(mmeRecs, proxyRecs,
		func(r mme.Record) bool { return r.IMEI == watch },
		func(r proxylog.Record) bool { return r.IMEI == watch })
	if got[alice][1] != 1 || len(got[alice]) != 1 {
		t.Fatalf("filtered join = %v", got[alice])
	}
}

// collectRef is the map-based per-user Collect that Profile replaced: a
// per-day sector map and a map-deduplicated pairwise scan. It is the
// reference the scratch path must match bit for bit.
func collectRef(a *Analyzer, records []mme.Record, window simtime.Window, keep func(mme.Record) bool) map[subs.IMSI]*Mobility {
	perUser := make(map[subs.IMSI][]mme.Record)
	for _, rec := range records {
		if (keep == nil || keep(rec)) && window.Contains(simtime.DayOf(rec.Time)) {
			perUser[rec.IMSI] = append(perUser[rec.IMSI], rec)
		}
	}
	out := make(map[subs.IMSI]*Mobility, len(perUser))
	for user, recs := range perUser {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
		m := &Mobility{IMSI: user, DailyMaxKm: make(map[simtime.Day]float64)}
		dwell := make(map[cells.SectorID]float64)
		perDay := make(map[simtime.Day][]cells.SectorID)
		for i, rec := range recs {
			d := simtime.DayOf(rec.Time)
			perDay[d] = append(perDay[d], rec.Sector)
			end := d.Time().Add(24 * time.Hour)
			if i+1 < len(recs) && recs[i+1].Time < end {
				end = recs[i+1].Time
			}
			if dur := time.Duration(end - rec.Time).Hours(); dur > 0 {
				dwell[rec.Sector] += dur
			}
		}
		for d, sectors := range perDay {
			var distinct []cells.SectorID
			seen := make(map[cells.SectorID]bool)
			for _, s := range sectors {
				if !seen[s] {
					seen[s] = true
					distinct = append(distinct, s)
				}
			}
			var max float64
			for i := range distinct {
				for j := i + 1; j < len(distinct); j++ {
					if km := a.topo.DistanceKm(distinct[i], distinct[j]); km > max {
						max = km
					}
				}
			}
			m.DailyMaxKm[d] = max
		}
		var weights []float64
		for _, sec := range sortx.Keys(dwell) {
			weights = append(weights, dwell[sec])
		}
		m.Entropy = stats.Entropy(weights)
		m.Sectors = len(dwell)
		out[user] = m
	}
	return out
}

// txSectorsRef is the TxSectors that the per-subscriber Scratch.TxSectors
// replaced: one global pass over the transactions against per-subscriber
// timelines.
func txSectorsRef(mmeRecords []mme.Record, proxyRecords []proxylog.Record,
	keepMME func(mme.Record) bool, keepTx func(proxylog.Record) bool) map[subs.IMSI]map[cells.SectorID]int64 {

	timeline := make(map[subs.IMSI][]mme.Record)
	for _, rec := range mmeRecords {
		if keepMME == nil || keepMME(rec) {
			timeline[rec.IMSI] = append(timeline[rec.IMSI], rec)
		}
	}
	for _, recs := range timeline {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	}
	out := make(map[subs.IMSI]map[cells.SectorID]int64)
	for _, tx := range proxyRecords {
		if keepTx != nil && !keepTx(tx) {
			continue
		}
		recs := timeline[tx.IMSI]
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Time > tx.Time })
		if i == 0 || simtime.DayOf(recs[i-1].Time) != simtime.DayOf(tx.Time) {
			continue
		}
		if out[tx.IMSI] == nil {
			out[tx.IMSI] = make(map[cells.SectorID]int64)
		}
		out[tx.IMSI][recs[i-1].Sector]++
	}
	return out
}

// TestProfileMatchesCollect runs Profile and the scratch TxSectors over
// every subscriber of SmallConfig(42), with one Scratch reused across all
// of them and both device filters interleaved, so state left over from
// one call shows in the next. The scalars must equal, bit for bit, those
// of the map-based reference and of Collect, and the join must equal the
// reference join and the package TxSectors.
func TestProfileMatchesCollect(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds, err := sim.Generate(sim.SmallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(ds.Topology)
	if err != nil {
		t.Fatal(err)
	}
	window := simtime.Detail()
	filters := []func(mme.Record) bool{
		func(r mme.Record) bool { return ds.Devices.IsWearable(r.IMEI) },
		func(r mme.Record) bool {
			m, ok := ds.Devices.Lookup(r.IMEI)
			return ok && m.Class == devicedb.Smartphone
		},
	}
	isWearTx := func(r proxylog.Record) bool { return ds.Devices.IsWearable(r.IMEI) }
	refs := make([]map[subs.IMSI]*Mobility, len(filters))
	colls := make([]map[subs.IMSI]*Mobility, len(filters))
	for i, keep := range filters {
		refs[i] = collectRef(a, ds.MME.Records, window, keep)
		colls[i] = a.Collect(ds.MME.Records, window, keep)
	}
	joined := txSectorsRef(ds.MME.Records, ds.Proxy.Records, filters[0], isWearTx)
	if got := TxSectors(ds.MME.Records, ds.Proxy.Records, filters[0], isWearTx); !maps.EqualFunc(got, joined, maps.Equal) {
		t.Fatal("TxSectors differs from the reference join")
	}
	byMME, byProxy := ds.MME.ByUser(), ds.Proxy.ByUser()

	scalars := func(m *Mobility) Profile {
		return Profile{MeanDailyMaxKm: m.MeanDailyMaxKm(), Entropy: m.Entropy, Days: len(m.DailyMaxKm),
			Sectors: m.Sectors, Stationary: m.Stationary()}
	}
	same := func(a, b Profile) bool {
		return math.Float64bits(a.MeanDailyMaxKm) == math.Float64bits(b.MeanDailyMaxKm) &&
			math.Float64bits(a.Entropy) == math.Float64bits(b.Entropy) &&
			a.Days == b.Days && a.Sectors == b.Sectors && a.Stationary == b.Stationary
	}
	var s Scratch
	profiled := 0
	for _, user := range sortx.Keys(byMME) {
		for i, keep := range filters {
			got, ok := a.Profile(byMME[user], window, keep, &s)
			ref := refs[i][user]
			if ok != (ref != nil) || ok != (colls[i][user] != nil) {
				t.Fatalf("user %d filter %d: Profile ok=%v, reference has user: %v", user, i, ok, ref != nil)
			}
			if !ok {
				continue
			}
			profiled++
			if want := scalars(ref); !same(got, want) {
				t.Fatalf("user %d filter %d: Profile %+v, reference %+v", user, i, got, want)
			}
			if want := scalars(colls[i][user]); !same(got, want) || !maps.Equal(colls[i][user].DailyMaxKm, ref.DailyMaxKm) {
				t.Fatalf("user %d filter %d: Collect differs from the reference", user, i)
			}
		}
		got := s.TxSectors(byMME[user], byProxy[user], filters[0], isWearTx)
		if !maps.Equal(got, joined[user]) {
			t.Fatalf("user %d: scratch TxSectors %v, reference %v", user, got, joined[user])
		}
	}
	if profiled == 0 {
		t.Fatal("no subscriber profiled")
	}
}
