package core

import (
	"math"
	"math/bits"
	"slices"

	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
	"wearwild/internal/stats"
	"wearwild/internal/stream"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/mobmetrics"
	"wearwild/internal/study/usermetrics"
)

// sizeSigBits is the significant-bit precision of the quantized
// transaction-size distribution (Fig 3c): relative error < 2^-9.
const sizeSigBits = 10

// hourCell is one (day, hour) cell of the wearable traffic grid.
type hourCell struct {
	users int64
	tx    int64
	bytes int64
}

// dayCell is one day of the wearable traffic grid: the distinct
// subscribers active that day and its 24 hour cells. Every temporal
// figure (Fig 3(a), the weekly stability check, the plan-cost span and
// the SIM hourly profile of the Through-Device comparison) is a sum over
// these cells at finalise time.
type dayCell struct {
	users int64
	hours [24]hourCell
}

// appAgg is one application's whole-study aggregate. Every field is an
// integer count, so cross-worker merging is exact in any order; Fig 7's
// per-usage means divide the exact sums at finalise time.
type appAgg struct {
	app          *apps.App
	usages       int64
	tx           int64
	bytes        int64
	users        int64 // distinct subscribers who used the app
	dayUserPairs int64 // distinct (day, subscriber) associations
}

// kindAcc is one Fig 8 transaction-category aggregate.
type kindAcc struct {
	tx       int64
	bytes    int64
	userDays int64 // distinct (subscriber, day) pairs
}

// mobScalar is the per-user residue of a mobility profile: the handful of
// scalars the figures read, kept after the full timeline is discarded.
type mobScalar struct {
	meanKm     float64
	entropy    float64
	days       int64
	stationary bool
}

// userStat is the per-subscriber residue the finalise pass folds in sorted
// IMSI order. It holds only scalars — never records or per-day series — so
// the engine's persistent state is sized by the subscriber population, not
// the log length. Per-day distributions (hours per active day) fold into
// exact per-worker counters at eviction time instead.
type userStat struct {
	wear      bool // seen with a SIM-enabled wearable device
	phoneYear int  // newest smartphone release year observed (0: none)

	// Wearable proxy activity (Fig 3b/3c/3d).
	active      bool
	daysPerWeek float64
	txPerHour   float64
	kbPerHour   float64
	meanHours   float64

	// ln(transaction size) partials, one Welford run per user over their
	// own records in time order; finalise merges them in sorted IMSI order
	// (DESIGN.md §7: non-exact folds happen sequentially in canonical
	// order).
	wearLog  stats.Summary
	phoneLog stats.Summary

	// Detail-window UDR totals (Fig 4a/4b), inline: one pointer-free
	// value per subscriber instead of a separate allocation for nearly
	// every user.
	hasTotals bool
	totals    usermetrics.Totals

	// Mobility scalars (Fig 4c/4d); nil when the user has no qualifying
	// MME records in the detail window.
	wearMob *mobScalar
	restMob *mobScalar

	// Application residue (§4.3 takeaways, Fig 4d join).
	appCount int

	// Through-Device detection (conclusion).
	tdService string
	tdKinds   int64 // transactions of the winning service

	// Plan-cost residue: per-kind wearable byte totals.
	planKinds *[apps.NumDomainKinds]int64
}

// partial accumulates one worker's share of every figure. All fields are
// either integer counters, domain-keyed maps of integer counters (days,
// weeks, app names — never record counts), per-subscriber residues
// keyed by IMSI, or mergeable stats accumulators; merge is therefore exact
// and the engine's output is identical at every Workers setting.
type partial struct {
	wearUsers  int64
	dataActive int64

	stats map[subs.IMSI]*userStat

	// Fig 2(a/b): wearable MME presence, indexed by day of the study.
	presence  [simtime.StudyDays]int64
	firstWeek int64
	retained  int64
	abandoned int64

	// Wearable traffic by (day, hour), and distinct users per week.
	grid                                    map[simtime.Day]*dayCell
	weekUsers                               map[simtime.Week]int64
	phoneTx, phoneWeekendTx, phoneEveningTx int64

	// Fig 3(c): transaction sizes.
	sizes    *stats.CountingECDF
	sizeHist *stats.Histogram

	// Fig 3(b): distinct active hours per (user, active day). The values
	// are integer counts in 1..24, so an exact counting ECDF reproduces
	// the expanded per-day sample bit for bit while storing 24 counters
	// per worker instead of one float per active day per subscriber.
	hoursPerDay *stats.CountingECDF

	// Figs 5–7 and §4.3.
	apps          map[string]*appAgg
	catDayPairs   map[apps.Category]int64
	oneAppDays    int64
	activeAppDays int64

	// Fig 8.
	kinds [apps.NumDomainKinds]kindAcc

	// §4.4 single-location takeaway.
	txWithData  int64
	txSingleLoc int64

	// Through-Device: companion-service transactions by hour.
	tdHours [24]int64
}

func newPartial() *partial {
	a := &partial{
		stats:       make(map[subs.IMSI]*userStat),
		grid:        make(map[simtime.Day]*dayCell),
		weekUsers:   make(map[simtime.Week]int64),
		sizes:       stats.NewCountingECDF(),
		hoursPerDay: stats.NewCountingECDF(),
		apps:        make(map[string]*appAgg),
		catDayPairs: make(map[apps.Category]int64),
	}
	// Sizes span several orders of magnitude; the log layout matches the
	// "sharply centred around 3 KB" claim the histogram supports.
	a.sizeHist, _ = stats.NewLogHistogram(200, 1<<22, 16)
	return a
}

// merge folds another worker's partial into a. Workers hold disjoint
// subscriber populations, so every map union is disjoint and every counter
// sum is an exact integer add; the CountingECDF and Histogram merges are
// count-map unions. No float accumulates here — the non-exact folds all
// happen at finalise time in sorted IMSI order. The per-subscriber stats
// maps are not merged: run moves their residues into one IMSI-sorted
// slice before merging.
func (a *partial) merge(o *partial) {
	a.wearUsers += o.wearUsers
	a.dataActive += o.dataActive
	for d, n := range o.presence {
		a.presence[d] += n
	}
	a.firstWeek += o.firstWeek
	a.retained += o.retained
	a.abandoned += o.abandoned
	for d, cell := range o.grid {
		dst := a.grid[d]
		if dst == nil {
			a.grid[d] = cell
			continue
		}
		dst.users += cell.users
		for h := range dst.hours {
			dst.hours[h].users += cell.hours[h].users
			dst.hours[h].tx += cell.hours[h].tx
			dst.hours[h].bytes += cell.hours[h].bytes
		}
	}
	for w, n := range o.weekUsers {
		a.weekUsers[w] += n
	}
	a.phoneTx += o.phoneTx
	a.phoneWeekendTx += o.phoneWeekendTx
	a.phoneEveningTx += o.phoneEveningTx
	a.sizes.Merge(o.sizes)
	if err := a.sizeHist.Merge(o.sizeHist); err != nil {
		panic(err) // all partials share one layout by construction
	}
	a.hoursPerDay.Merge(o.hoursPerDay)
	for name, agg := range o.apps {
		dst := a.apps[name]
		if dst == nil {
			a.apps[name] = agg
			continue
		}
		dst.usages += agg.usages
		dst.tx += agg.tx
		dst.bytes += agg.bytes
		dst.users += agg.users
		dst.dayUserPairs += agg.dayUserPairs
	}
	for c, n := range o.catDayPairs {
		a.catDayPairs[c] += n
	}
	a.oneAppDays += o.oneAppDays
	a.activeAppDays += o.activeAppDays
	for k := range a.kinds {
		a.kinds[k].tx += o.kinds[k].tx
		a.kinds[k].bytes += o.kinds[k].bytes
		a.kinds[k].userDays += o.kinds[k].userDays
	}
	a.txWithData += o.txWithData
	a.txSingleLoc += o.txSingleLoc
	for h := range a.tdHours {
		a.tdHours[h] += o.tdHours[h]
	}
}

// addUser folds one subscriber's complete record bundle into the worker's
// partial and discards the records: the single eviction point that keeps
// the engine's residency per-population instead of per-log.
func (e *engine) addUser(w *worker, user subs.IMSI, b *stream.Records) {
	acc, st := w.acc, &userStat{}
	devs := &w.devs
	devs.reset()

	// The folds below follow record order, so a source that delivers a
	// subscriber's proxy records out of time order is put back in it;
	// equal instants keep their arrival order.
	if !slices.IsSortedFunc(b.Proxy, proxylog.ByTime) {
		slices.SortStableFunc(b.Proxy, proxylog.ByTime)
	}

	// Device classification (§3.2), from this user's own observations.
	classify := func(dev imei.IMEI) {
		if user == 0 || dev == 0 {
			return
		}
		m := devs.model(dev)
		if m == nil {
			return
		}
		if m.Class == devicedb.WearableSIM {
			st.wear = true
		}
		if m.Class == devicedb.Smartphone && m.Year > st.phoneYear {
			st.phoneYear = m.Year
		}
	}
	for i := range b.MME {
		classify(b.MME[i].IMEI)
	}
	for i := range b.Proxy {
		classify(b.Proxy[i].IMEI)
	}
	for i := range b.UDR {
		classify(b.UDR[i].IMEI)
	}
	if st.wear {
		acc.wearUsers++
	}

	// Proxy split: wearable-device records vs the handset baseline.
	wearRecs, phoneRecs := w.wearRecs[:0], w.phoneRecs[:0]
	for _, rec := range b.Proxy {
		if devs.wearable(rec.IMEI) {
			wearRecs = append(wearRecs, rec)
		} else {
			phoneRecs = append(phoneRecs, rec)
		}
	}
	w.wearRecs, w.phoneRecs = wearRecs, phoneRecs

	e.addPresence(acc, devs, b.MME)
	e.addUDR(acc, st, devs, b.UDR)
	e.addWearTraffic(acc, st, wearRecs)
	e.addPhoneTraffic(acc, st, phoneRecs)
	e.addApps(acc, st, wearRecs, w)
	e.addMobility(acc, st, devs, b.MME, wearRecs, &w.mob)
	e.addThroughDevice(acc, st, b.Proxy)

	acc.stats[user] = st
}

// devices resolves one subscriber's IMEIs to device models. A subscriber
// is seen with one or two IMEIs, so each distinct one is looked up in the
// device database once per subscriber instead of once per record; past
// maxDevices distinct IMEIs (only malformed input has that many) the rest
// go to the database every time, so a lookup stays a short scan.
type devices struct {
	db     *devicedb.DB
	ids    []imei.IMEI
	models []*devicedb.Model // nil: TAC not in the database
}

const maxDevices = 8

// reset forgets the previous subscriber's devices.
func (d *devices) reset() {
	d.ids = d.ids[:0]
	d.models = d.models[:0]
}

// model returns the device model of id, nil when its TAC is unknown: the
// database's Lookup, cached.
func (d *devices) model(id imei.IMEI) *devicedb.Model {
	for i, known := range d.ids {
		if known == id {
			return d.models[i]
		}
	}
	m, _ := d.db.Lookup(id)
	if len(d.ids) < maxDevices {
		d.ids = append(d.ids, id)
		d.models = append(d.models, m)
	}
	return m
}

// wearable is the database's IsWearable, cached.
func (d *devices) wearable(id imei.IMEI) bool {
	m := d.model(id)
	return m != nil && m.Class == devicedb.WearableSIM
}

// addPresence folds the user's wearable MME registrations into the Fig 2
// adoption and retention counters.
func (e *engine) addPresence(acc *partial, devs *devices, recs []mme.Record) {
	study := simtime.FullStudy()
	var days [simtime.StudyDays]bool // indexed by day since study.Start
	seen := false
	for _, rec := range recs {
		if !devs.wearable(rec.IMEI) {
			continue
		}
		d := simtime.DayOf(rec.Time)
		if study.Contains(d) {
			days[d-study.Start] = true
			seen = true
		}
	}
	if !seen {
		return
	}
	first, last := study.FirstWeek(), study.LastWeek()
	after := simtime.Window{Start: study.End - 4*simtime.DaysPerWeek, End: study.End}
	var inFirst, inLast, inAfter bool
	for i, present := range days {
		if !present {
			continue
		}
		acc.presence[i]++
		d := study.Start + simtime.Day(i)
		if first.Contains(d) {
			inFirst = true
		}
		if last.Contains(d) {
			inLast = true
		}
		if after.Contains(d) {
			inAfter = true
		}
	}
	if inFirst {
		acc.firstWeek++
		if inLast {
			acc.retained++
		}
		if !inAfter {
			acc.abandoned++
		}
	}
}

// addUDR folds the user's weekly aggregates: the detail-window totals of
// Fig 4(a/b) and the whole-study data-active share of Fig 2(a).
func (e *engine) addUDR(acc *partial, st *userStat, devs *devices, recs []udr.Record) {
	if len(recs) == 0 {
		return
	}
	totals := usermetrics.TotalsFromUDR(recs, simtime.Detail(), devs.wearable)
	for _, t := range totals {
		st.totals = *t
		st.hasTotals = true
	}
	if st.wear {
		for _, rec := range recs {
			if rec.Bytes > 0 && devs.wearable(rec.IMEI) {
				acc.dataActive++
				break
			}
		}
	}
}

// addWearTraffic folds the user's wearable transactions in one pass: the
// (day, hour) grid every temporal figure sums, the Fig 3(b/c/d) per-user
// activity scalars, the size distribution, the plan-cost residue and the
// Fig 8 category counters.
func (e *engine) addWearTraffic(acc *partial, st *userStat, recs []proxylog.Record) {
	if len(recs) == 0 {
		return
	}
	weekSeen := make(map[simtime.Week]struct{})
	// daySeen[d] holds the hours (bits 0-23) and the Fig 8 kinds (bits
	// 24 up) the user touched on day d.
	const hourBits = 1<<24 - 1
	const _ = uint32(1) << (24 + apps.NumDomainKinds - 1) // kinds fit
	daySeen := make(map[simtime.Day]uint32)
	st.planKinds = new([apps.NumDomainKinds]int64)
	var bytes int64
	for _, rec := range recs {
		hr := simtime.HourOf(rec.Time)
		d, h := hr.Day(), hr.OfDay()
		k := e.resolver.KindOfHost(rec.Host)
		b := rec.Bytes()
		bytes += b

		cell := acc.grid[d]
		if cell == nil {
			cell = new(dayCell)
			acc.grid[d] = cell
		}
		seen := daySeen[d]
		if seen == 0 {
			cell.users++
			w := d.Week()
			if _, ok := weekSeen[w]; !ok {
				weekSeen[w] = struct{}{}
				acc.weekUsers[w]++
			}
		}
		if bit := uint32(1) << h; seen&bit == 0 {
			seen |= bit
			cell.hours[h].users++
		}
		if bit := uint32(1) << (24 + k); seen&bit == 0 {
			seen |= bit
			acc.kinds[k].userDays++
		}
		daySeen[d] = seen
		cell.hours[h].tx++
		cell.hours[h].bytes += b
		acc.kinds[k].tx++
		acc.kinds[k].bytes += b
		st.planKinds[k] += b

		// Sizes are near-continuous (lognormal), so the counting ECDF is
		// fed log-quantized values: ~28k possible keys at 10 significant
		// bits (< 0.2% error) instead of one key per distinct size — the
		// map stays domain-bounded at any record count.
		acc.sizes.Add(stats.LogQuantize(b, sizeSigBits))
		acc.sizeHist.Add(float64(b))
		if b > 0 {
			st.wearLog.Add(math.Log(float64(b)))
		}
	}

	// Fig 3(b/d) activity, with the operands and divisions of
	// usermetrics.Activity (TestActivityMatchesCollect).
	activeHours := 0
	for _, seen := range daySeen {
		n := bits.OnesCount32(seen & hourBits)
		acc.hoursPerDay.Add(int64(n))
		activeHours += n
	}
	st.active = true
	st.daysPerWeek = float64(len(daySeen)) / float64(detailWeeks())
	st.txPerHour = float64(len(recs)) / float64(activeHours)
	st.kbPerHour = float64(bytes) / float64(activeHours) / 1024
	st.meanHours = float64(activeHours) / float64(len(daySeen))
}

// addPhoneTraffic folds the user's handset transactions: the comparison
// baseline of Fig 3(a)'s relative factors and Fig 3(c)'s spread.
func (e *engine) addPhoneTraffic(acc *partial, st *userStat, recs []proxylog.Record) {
	for _, rec := range recs {
		acc.phoneTx++
		hr := simtime.HourOf(rec.Time)
		if hr.Day().IsWeekend() {
			acc.phoneWeekendTx++
		}
		if hr.OfDay() >= 18 {
			acc.phoneEveningTx++
		}
		if b := rec.Bytes(); b > 0 {
			st.phoneLog.Add(math.Log(float64(b)))
		}
	}
}

// addApps sessionises and attributes the user's wearable traffic (§5) and
// folds the per-app, per-category and takeaway counters.
func (e *engine) addApps(acc *partial, st *userStat, recs []proxylog.Record, w *worker) {
	if len(recs) == 0 {
		return
	}
	w.usages = w.usages[:0]
	w.usages = w.sessions.Append(w.usages, recs, e.cfg.SessionGap)
	attributed := e.resolver.Attribute(w.usages)

	type localApp struct {
		app  *apps.App
		days map[simtime.Day]struct{}
	}
	local := make(map[string]*localApp)
	catDays := make(map[apps.Category]map[simtime.Day]struct{})
	dayApps := make(map[simtime.Day]map[string]struct{})
	for _, u := range attributed {
		if u.App == nil {
			continue // no first-party anchor in the timeframe
		}
		d := simtime.DayOf(u.Start)
		la := local[u.App.Name]
		if la == nil {
			la = &localApp{app: u.App, days: make(map[simtime.Day]struct{})}
			local[u.App.Name] = la
		}
		la.days[d] = struct{}{}
		if catDays[u.App.Category] == nil {
			catDays[u.App.Category] = make(map[simtime.Day]struct{})
		}
		catDays[u.App.Category][d] = struct{}{}
		if dayApps[d] == nil {
			dayApps[d] = make(map[string]struct{})
		}
		dayApps[d][u.App.Name] = struct{}{}

		agg := acc.apps[u.App.Name]
		if agg == nil {
			agg = &appAgg{app: u.App}
			acc.apps[u.App.Name] = agg
		}
		agg.usages++
		agg.tx += int64(u.Transactions())
		agg.bytes += u.Bytes()
	}
	for name, la := range local {
		agg := acc.apps[name]
		agg.users++
		agg.dayUserPairs += int64(len(la.days))
	}
	for cat, days := range catDays {
		acc.catDayPairs[cat] += int64(len(days))
	}
	for _, set := range dayApps {
		acc.activeAppDays++
		if len(set) == 1 {
			acc.oneAppDays++
		}
	}
	st.appCount = len(local)
}

// addMobility folds the user's mobility profiles (Fig 4c/4d) and the
// tx-to-sector join behind the single-location takeaway (§4.4).
func (e *engine) addMobility(acc *partial, st *userStat, devs *devices, mmeRecs []mme.Record, wearRecs []proxylog.Record, sc *mobmetrics.Scratch) {
	if len(mmeRecs) == 0 {
		return
	}
	window := simtime.Detail()
	isWearDev := func(r mme.Record) bool { return devs.wearable(r.IMEI) }

	if p, ok := e.analyzer.Profile(mmeRecs, window, isWearDev, sc); ok {
		st.wearMob = newMobScalar(p)
	}
	if !st.wear {
		isRestPhone := func(r mme.Record) bool {
			m := devs.model(r.IMEI)
			return m != nil && m.Class == devicedb.Smartphone
		}
		if p, ok := e.analyzer.Profile(mmeRecs, window, isRestPhone, sc); ok {
			st.restMob = newMobScalar(p)
		}
	}

	if len(wearRecs) > 0 {
		sectors := sc.TxSectors(mmeRecs, wearRecs, isWearDev,
			func(r proxylog.Record) bool { return devs.wearable(r.IMEI) })
		if len(sectors) > 0 {
			acc.txWithData++
			if len(sectors) == 1 {
				acc.txSingleLoc++
			}
		}
	}
}

func newMobScalar(p mobmetrics.Profile) *mobScalar {
	return &mobScalar{meanKm: p.MeanDailyMaxKm, entropy: p.Entropy, days: int64(p.Days), stationary: p.Stationary}
}

// addThroughDevice runs the companion-traffic fingerprinting (conclusion)
// over the user's whole proxy stream.
func (e *engine) addThroughDevice(acc *partial, st *userStat, recs []proxylog.Record) {
	if st.wear || len(recs) == 0 {
		return // SIM-wearable users are identified directly by TAC
	}
	svcTx := make(map[string]int64)
	var hours [24]int64
	for _, rec := range recs {
		if svc, ok := e.detector.ServiceOfHost(rec.Host); ok {
			svcTx[svc]++
			hours[simtime.HourOf(rec.Time).OfDay()]++
		}
	}
	if len(svcTx) == 0 {
		return
	}
	best := ""
	for svc := range svcTx {
		if best == "" || svcTx[svc] > svcTx[best] || (svcTx[svc] == svcTx[best] && svc < best) {
			best = svc
		}
	}
	st.tdService = best
	st.tdKinds = svcTx[best]
	for h, n := range hours {
		acc.tdHours[h] += n
	}
}
