// Package mobmetrics computes the paper's mobility metrics from MME logs:
// the daily max displacement (distance between the furthest two antennas a
// user connects to in a day), the time-normalised Shannon entropy of
// visited locations, and the join of proxy transactions to the sector they
// were issued from (§4.4).
package mobmetrics

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"
)

// Analyzer computes mobility metrics over one topology.
type Analyzer struct {
	topo *cells.Topology
}

// New returns an analyzer.
func New(topo *cells.Topology) (*Analyzer, error) {
	if topo == nil || topo.Len() == 0 {
		return nil, fmt.Errorf("mobmetrics: empty topology")
	}
	return &Analyzer{topo: topo}, nil
}

// Mobility is one subscriber's mobility profile over a window.
type Mobility struct {
	IMSI subs.IMSI
	// DailyMaxKm maps each observed day to its max displacement.
	DailyMaxKm map[simtime.Day]float64
	// Entropy is the dwell-time-weighted Shannon entropy (bits) of
	// visited sectors across the window.
	Entropy float64
	// Sectors is the number of distinct sectors visited.
	Sectors int
}

// MeanDailyMaxKm averages the daily max displacement over observed days.
// The summation runs in day order: float addition is not associative, so
// summing in map-iteration order would smear the low bits from run to
// run and break the byte-identical determinism contract.
func (m *Mobility) MeanDailyMaxKm() float64 {
	if len(m.DailyMaxKm) == 0 {
		return 0
	}
	var sum float64
	for _, d := range sortx.Keys(m.DailyMaxKm) {
		sum += m.DailyMaxKm[d]
	}
	return sum / float64(len(m.DailyMaxKm))
}

// Stationary reports whether the user never moved between sectors.
func (m *Mobility) Stationary() bool {
	for _, v := range m.DailyMaxKm {
		if v > 0 {
			return false
		}
	}
	return true
}

// Collect computes per-subscriber mobility from MME records inside the
// window, considering only records accepted by keep (nil keeps all).
// Records of several devices of the same subscriber merge into one
// timeline, so callers normally filter to a single device class.
func (a *Analyzer) Collect(records []mme.Record, window simtime.Window, keep func(mme.Record) bool) map[subs.IMSI]*Mobility {
	perUser := make(map[subs.IMSI][]mme.Record)
	for _, rec := range records {
		perUser[rec.IMSI] = append(perUser[rec.IMSI], rec)
	}
	out := make(map[subs.IMSI]*Mobility, len(perUser))
	var s Scratch
	for user, recs := range perUser {
		p, ok := a.Profile(recs, window, keep, &s)
		if !ok {
			continue
		}
		m := &Mobility{IMSI: user, DailyMaxKm: make(map[simtime.Day]float64, len(s.days)), Entropy: p.Entropy, Sectors: p.Sectors}
		for _, dm := range s.days {
			m.DailyMaxKm[dm.day] = dm.km
		}
		out[user] = m
	}
	return out
}

// Profile is one subscriber's mobility scalars: the values of the
// matching Mobility's methods and fields.
type Profile struct {
	MeanDailyMaxKm float64
	Entropy        float64
	Days           int // observed days
	Sectors        int
	Stationary     bool
}

// Scratch holds the buffers of one subscriber's mobility profile and
// transaction join, so profiling one subscriber after another reuses
// them instead of allocating per call.
type Scratch struct {
	recs     []mme.Record
	days     []dayMax
	distinct []cells.SectorID
	dwell    map[cells.SectorID]float64
	sectors  []cells.SectorID
	weights  []float64
	joined   map[cells.SectorID]int64
}

// dayMax is one observed day's max displacement.
type dayMax struct {
	day simtime.Day
	km  float64
}

// Profile computes the mobility of one subscriber — every record has the
// same IMSI — as Collect does, from the records inside the window that
// keep accepts (nil keeps all). ok is false when none qualifies.
func (a *Analyzer) Profile(records []mme.Record, window simtime.Window, keep func(mme.Record) bool, s *Scratch) (p Profile, ok bool) {
	recs := s.recs[:0]
	for _, rec := range records {
		if (keep == nil || keep(rec)) && window.Contains(simtime.DayOf(rec.Time)) {
			recs = append(recs, rec)
		}
	}
	s.recs = recs
	if len(recs) == 0 {
		return Profile{}, false
	}
	slices.SortStableFunc(recs, byTime)

	// Records are in time order, so each day is one contiguous run and
	// the runs come in ascending day order: the order MeanDailyMaxKm sums
	// in.
	if s.dwell == nil {
		s.dwell = make(map[cells.SectorID]float64)
	}
	clear(s.dwell)
	s.days = s.days[:0]
	dayStart := 0
	for i, rec := range recs {
		d := simtime.DayOf(rec.Time)
		if i+1 == len(recs) || simtime.DayOf(recs[i+1].Time) != d {
			s.days = append(s.days, dayMax{d, a.maxPairwiseKm(recs[dayStart:i+1], s)})
			dayStart = i + 1
		}

		// Dwell until the next record or the end of the record's day,
		// whichever comes first; this is the "time a user stays in a
		// single location" normalisation of the entropy metric.
		end := d.Time().Add(24 * time.Hour)
		if i+1 < len(recs) && recs[i+1].Time.Before(end) {
			end = recs[i+1].Time
		}
		if dur := end.Sub(rec.Time).Hours(); dur > 0 {
			s.dwell[rec.Sector] += dur
		}
	}

	s.sectors = s.sectors[:0]
	for sec := range s.dwell {
		s.sectors = append(s.sectors, sec)
	}
	slices.Sort(s.sectors)
	s.weights = s.weights[:0]
	for _, sec := range s.sectors {
		s.weights = append(s.weights, s.dwell[sec])
	}

	p = Profile{Entropy: stats.Entropy(s.weights), Days: len(s.days), Sectors: len(s.dwell), Stationary: true}
	var sum float64
	for _, dm := range s.days {
		sum += dm.km
		if dm.km > 0 {
			p.Stationary = false
		}
	}
	p.MeanDailyMaxKm = sum / float64(len(s.days))
	return p, true
}

func byTime(a, b mme.Record) int { return a.Time.Compare(b.Time) }

// maxPairwiseKm returns the max distance between any two sectors of a
// day's time-ordered records. Days have few distinct sectors, so the
// quadratic scan is cheap, and so is the linear dedup.
func (a *Analyzer) maxPairwiseKm(day []mme.Record, s *Scratch) float64 {
	s.distinct = s.distinct[:0]
	for _, rec := range day {
		if !slices.Contains(s.distinct, rec.Sector) {
			s.distinct = append(s.distinct, rec.Sector)
		}
	}
	distinct := s.distinct
	var max float64
	for i := 0; i < len(distinct); i++ {
		for j := i + 1; j < len(distinct); j++ {
			if d := a.topo.DistanceKm(distinct[i], distinct[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// TxSectors joins proxy transactions to the sector the device was attached
// to at transaction time: for each transaction, the most recent MME record
// of the same subscriber on the same day. Returns per-subscriber
// transaction counts per sector. Transactions with no same-day MME context
// are dropped.
func TxSectors(mmeRecords []mme.Record, proxyRecords []proxylog.Record,
	keepMME func(mme.Record) bool, keepTx func(proxylog.Record) bool) map[subs.IMSI]map[cells.SectorID]int64 {

	mmeBy := make(map[subs.IMSI][]mme.Record)
	for _, rec := range mmeRecords {
		mmeBy[rec.IMSI] = append(mmeBy[rec.IMSI], rec)
	}
	txBy := make(map[subs.IMSI][]proxylog.Record)
	for _, tx := range proxyRecords {
		txBy[tx.IMSI] = append(txBy[tx.IMSI], tx)
	}
	out := make(map[subs.IMSI]map[cells.SectorID]int64)
	var s Scratch
	for user, txs := range txBy {
		if joined := s.TxSectors(mmeBy[user], txs, keepMME, keepTx); len(joined) > 0 {
			out[user] = maps.Clone(joined)
		}
	}
	return out
}

// TxSectors is the package TxSectors for one subscriber — every record
// has the same IMSI — returning that subscriber's counts. They belong to
// s: they stay valid until the next TxSectors on s.
func (s *Scratch) TxSectors(mmeRecords []mme.Record, proxyRecords []proxylog.Record,
	keepMME func(mme.Record) bool, keepTx func(proxylog.Record) bool) map[cells.SectorID]int64 {

	timeline := s.recs[:0]
	for _, rec := range mmeRecords {
		if keepMME == nil || keepMME(rec) {
			timeline = append(timeline, rec)
		}
	}
	s.recs = timeline
	slices.SortStableFunc(timeline, byTime)

	if s.joined == nil {
		s.joined = make(map[cells.SectorID]int64, 2)
	}
	clear(s.joined)
	for _, tx := range proxyRecords {
		if keepTx != nil && !keepTx(tx) {
			continue
		}
		if sec, ok := attachedAt(timeline, tx.Time); ok {
			s.joined[sec]++
		}
	}
	return s.joined
}

// attachedAt returns the sector of a time-sorted timeline's last record
// at or before t, if that record is from t's day.
func attachedAt(timeline []mme.Record, t time.Time) (cells.SectorID, bool) {
	i := sort.Search(len(timeline), func(i int) bool { return timeline[i].Time.After(t) })
	if i == 0 {
		return 0, false
	}
	ctx := timeline[i-1]
	if simtime.DayOf(ctx.Time) != simtime.DayOf(t) {
		return 0, false // stale context from a previous day
	}
	return ctx.Sector, true
}
