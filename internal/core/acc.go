package core

import (
	"math"

	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
	"wearwild/internal/stats"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/mobmetrics"
	"wearwild/internal/study/usermetrics"
)

// sizeSigBits is the significant-bit precision of the quantized
// transaction-size distribution (Fig 3c): relative error < 2^-9.
const sizeSigBits = 10

// hourCell is one (day, hour) cell of the Fig 3(a) grid.
type hourCell struct {
	users int64
	tx    int64
	bytes int64
}

// appAgg is one application's whole-study aggregate. Every field is an
// integer count, so cross-shard merging is exact in any order; Fig 7's
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
	dayUsers map[simtime.Day]int64 // distinct users per day
}

// weekCell is one detail week's Weekly totals.
type weekCell struct {
	tx    int64
	bytes int64
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
// exact shard-level counters at eviction time instead.
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

// shardAcc accumulates one shard's share of every figure. All fields are
// either integer counters, domain-keyed maps of integer counters (days,
// weeks, hours, app names — never record counts), per-subscriber residues
// keyed by IMSI, or mergeable stats accumulators; merge is therefore exact
// and the engine's output is identical at every Workers and Shards setting.
type shardAcc struct {
	wearUsers  int64
	dataActive int64

	stats map[subs.IMSI]*userStat

	// Fig 2(a/b): wearable MME presence.
	presence  map[simtime.Day]int64
	firstWeek int64
	retained  int64
	abandoned int64

	// Fig 3(a).
	grid                                    map[simtime.Day]*[24]hourCell
	weekUsers                               map[simtime.Week]int64
	dayUsers                                map[simtime.Day]int64
	wearTx, wearWeekendTx, wearEveningTx    int64
	phoneTx, phoneWeekendTx, phoneEveningTx int64

	// Fig 3(c): transaction sizes.
	sizes    *stats.CountingECDF
	sizeHist *stats.Histogram

	// Fig 3(b): distinct active hours per (user, active day). The values
	// are integer counts in 1..24, so an exact counting ECDF reproduces
	// the expanded per-day sample bit for bit while storing 24 counters
	// per shard instead of one float per active day per subscriber.
	hoursPerDay *stats.CountingECDF

	// Figs 5–7 and §4.3.
	apps          map[string]*appAgg
	catDayPairs   map[apps.Category]int64
	oneAppDays    int64
	activeAppDays int64

	// Fig 8.
	kinds [apps.NumDomainKinds]kindAcc

	// Weekly stability.
	byWeek     map[simtime.Week]*weekCell
	dowTx      [7]int64
	dowBytes   [7]int64
	dailyTx    map[simtime.Day]int64
	dailyBytes map[simtime.Day]int64

	// Plan-cost observation span.
	haveWearDay    bool
	minDay, maxDay simtime.Day

	// §4.4 single-location takeaway.
	txWithData  int64
	txSingleLoc int64

	// Through-Device.
	simHours [24]int64
	tdHours  [24]int64
}

func newShardAcc() *shardAcc {
	a := &shardAcc{
		stats:       make(map[subs.IMSI]*userStat),
		presence:    make(map[simtime.Day]int64),
		grid:        make(map[simtime.Day]*[24]hourCell),
		weekUsers:   make(map[simtime.Week]int64),
		dayUsers:    make(map[simtime.Day]int64),
		sizes:       stats.NewCountingECDF(),
		hoursPerDay: stats.NewCountingECDF(),
		apps:        make(map[string]*appAgg),
		catDayPairs: make(map[apps.Category]int64),
		byWeek:      make(map[simtime.Week]*weekCell),
		dailyTx:     make(map[simtime.Day]int64),
		dailyBytes:  make(map[simtime.Day]int64),
	}
	for k := range a.kinds {
		a.kinds[k].dayUsers = make(map[simtime.Day]int64)
	}
	// Sizes span several orders of magnitude; the log layout matches the
	// "sharply centred around 3 KB" claim the histogram supports.
	a.sizeHist, _ = stats.NewLogHistogram(200, 1<<22, 16)
	return a
}

// merge folds another shard's accumulator into a. Shards hold disjoint
// subscriber populations, so every map union is disjoint and every counter
// sum is an exact integer add; the CountingECDF and Histogram merges are
// count-map unions. No float accumulates here — the non-exact folds all
// happen at finalise time in sorted IMSI order. The per-subscriber stats
// maps deliberately stay per-shard: finalise reaches each residue through
// the shard hash, so the end of a run never re-buckets the population
// into one union map.
func (a *shardAcc) merge(o *shardAcc) {
	a.wearUsers += o.wearUsers
	a.dataActive += o.dataActive
	for d, n := range o.presence {
		a.presence[d] += n
	}
	a.firstWeek += o.firstWeek
	a.retained += o.retained
	a.abandoned += o.abandoned
	for d, row := range o.grid {
		dst := a.grid[d]
		if dst == nil {
			a.grid[d] = row
			continue
		}
		for h := 0; h < 24; h++ {
			dst[h].users += row[h].users
			dst[h].tx += row[h].tx
			dst[h].bytes += row[h].bytes
		}
	}
	for w, n := range o.weekUsers {
		a.weekUsers[w] += n
	}
	for d, n := range o.dayUsers {
		a.dayUsers[d] += n
	}
	a.wearTx += o.wearTx
	a.wearWeekendTx += o.wearWeekendTx
	a.wearEveningTx += o.wearEveningTx
	a.phoneTx += o.phoneTx
	a.phoneWeekendTx += o.phoneWeekendTx
	a.phoneEveningTx += o.phoneEveningTx
	a.sizes.Merge(o.sizes)
	if err := a.sizeHist.Merge(o.sizeHist); err != nil {
		panic(err) // all shards share one layout by construction
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
		for d, n := range o.kinds[k].dayUsers {
			a.kinds[k].dayUsers[d] += n
		}
	}
	for w, c := range o.byWeek {
		dst := a.byWeek[w]
		if dst == nil {
			a.byWeek[w] = c
			continue
		}
		dst.tx += c.tx
		dst.bytes += c.bytes
	}
	for i := 0; i < 7; i++ {
		a.dowTx[i] += o.dowTx[i]
		a.dowBytes[i] += o.dowBytes[i]
	}
	for d, n := range o.dailyTx {
		a.dailyTx[d] += n
	}
	for d, n := range o.dailyBytes {
		a.dailyBytes[d] += n
	}
	if o.haveWearDay {
		if !a.haveWearDay || o.minDay < a.minDay {
			a.minDay = o.minDay
		}
		if !a.haveWearDay || o.maxDay > a.maxDay {
			a.maxDay = o.maxDay
		}
		a.haveWearDay = true
	}
	a.txWithData += o.txWithData
	a.txSingleLoc += o.txSingleLoc
	for h := 0; h < 24; h++ {
		a.simHours[h] += o.simHours[h]
		a.tdHours[h] += o.tdHours[h]
	}
}

// addUser folds one subscriber's complete record bundle into the shard
// accumulator and discards the records: the single eviction point that
// keeps the engine's residency per-population instead of per-log.
func (e *engine) addUser(acc *shardAcc, user subs.IMSI, b *userBundle, sc *workerScratch) {
	st := &userStat{}
	db := e.env.Devices

	// Device classification (§3.2), from this user's own observations.
	classify := func(dev imei.IMEI) {
		if user == 0 || dev == 0 {
			return
		}
		m, known := db.Lookup(dev)
		if !known {
			return
		}
		if m.Class == devicedb.WearableSIM {
			st.wear = true
		}
		if m.Class == devicedb.Smartphone && m.Year > st.phoneYear {
			st.phoneYear = m.Year
		}
	}
	for i := range b.mme {
		classify(b.mme[i].IMEI)
	}
	for i := range b.proxy {
		classify(b.proxy[i].IMEI)
	}
	for i := range b.udr {
		classify(b.udr[i].IMEI)
	}
	if st.wear {
		acc.wearUsers++
	}

	// Proxy split: wearable-device records vs the handset baseline.
	wearRecs, phoneRecs := sc.wearRecs[:0], sc.phoneRecs[:0]
	for _, rec := range b.proxy {
		if db.IsWearable(rec.IMEI) {
			wearRecs = append(wearRecs, rec)
		} else {
			phoneRecs = append(phoneRecs, rec)
		}
	}
	sc.wearRecs, sc.phoneRecs = wearRecs, phoneRecs

	e.addPresence(acc, b.mme)
	e.addUDR(acc, st, b.udr)
	e.addWearTraffic(acc, st, wearRecs)
	e.addPhoneTraffic(acc, st, phoneRecs)
	e.addApps(acc, st, wearRecs, sc)
	e.addMobility(acc, st, b.mme, wearRecs, &sc.mob)
	e.addThroughDevice(acc, st, b.proxy)

	acc.stats[user] = st
}

// addPresence folds the user's wearable MME registrations into the Fig 2
// adoption and retention counters.
func (e *engine) addPresence(acc *shardAcc, recs []mme.Record) {
	study := simtime.FullStudy()
	days := make(map[simtime.Day]struct{})
	for _, rec := range recs {
		if !e.env.Devices.IsWearable(rec.IMEI) {
			continue
		}
		d := simtime.DayOf(rec.Time)
		if study.Contains(d) {
			days[d] = struct{}{}
		}
	}
	if len(days) == 0 {
		return
	}
	first, last := study.FirstWeek(), study.LastWeek()
	after := simtime.Window{Start: study.End - 4*simtime.DaysPerWeek, End: study.End}
	var inFirst, inLast, inAfter bool
	for d := range days {
		acc.presence[d]++
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
func (e *engine) addUDR(acc *shardAcc, st *userStat, recs []udr.Record) {
	if len(recs) == 0 {
		return
	}
	totals := usermetrics.TotalsFromUDR(recs, simtime.Detail(), e.env.Devices.IsWearable)
	for _, t := range totals {
		st.totals = *t
		st.hasTotals = true
	}
	if st.wear {
		for _, rec := range recs {
			if rec.Bytes > 0 && e.env.Devices.IsWearable(rec.IMEI) {
				acc.dataActive++
				break
			}
		}
	}
}

// addWearTraffic folds the user's wearable transactions: the Fig 3(a)
// hourly grid, the Fig 3(b/c/d) per-user activity scalars, the size
// distribution, the Weekly stability counters, the plan-cost residue, and
// the SIM hourly profile the Through-Device comparison normalises against.
func (e *engine) addWearTraffic(acc *shardAcc, st *userStat, recs []proxylog.Record) {
	if len(recs) == 0 {
		return
	}
	weekSeen := make(map[simtime.Week]struct{})
	cellSeen := make(map[simtime.Day]uint32) // bitmask of hours seen per day
	for _, rec := range recs {
		d := simtime.DayOf(rec.Time)
		h := rec.Time.Hour()
		w := d.Week()

		row := acc.grid[d]
		if row == nil {
			row = new([24]hourCell)
			acc.grid[d] = row
		}
		if cellSeen[d]&(1<<uint(h)) == 0 {
			if cellSeen[d] == 0 {
				acc.dayUsers[d]++
			}
			cellSeen[d] |= 1 << uint(h)
			row[h].users++
		}
		row[h].tx++
		row[h].bytes += rec.Bytes()
		if _, ok := weekSeen[w]; !ok {
			weekSeen[w] = struct{}{}
			acc.weekUsers[w]++
		}

		acc.wearTx++
		if d.IsWeekend() {
			acc.wearWeekendTx++
		}
		if h >= 18 {
			acc.wearEveningTx++
		}

		// Sizes are near-continuous (lognormal), so the counting ECDF is
		// fed log-quantized values: ~28k possible keys at 10 significant
		// bits (< 0.2% error) instead of one key per distinct size — the
		// map stays domain-bounded at any record count.
		acc.sizes.Add(stats.LogQuantize(rec.Bytes(), sizeSigBits))
		acc.sizeHist.Add(float64(rec.Bytes()))
		if b := rec.Bytes(); b > 0 {
			st.wearLog.Add(math.Log(float64(b)))
		}

		cell := acc.byWeek[w]
		if cell == nil {
			cell = &weekCell{}
			acc.byWeek[w] = cell
		}
		cell.tx++
		cell.bytes += rec.Bytes()
		acc.dowTx[int(d)%7]++ // epoch is a Monday
		acc.dowBytes[int(d)%7] += rec.Bytes()
		acc.dailyTx[d]++
		acc.dailyBytes[d] += rec.Bytes()

		if !acc.haveWearDay || d < acc.minDay {
			acc.minDay = d
		}
		if !acc.haveWearDay || d > acc.maxDay {
			acc.maxDay = d
		}
		acc.haveWearDay = true

		acc.simHours[h]++

		if st.planKinds == nil {
			st.planKinds = new([apps.NumDomainKinds]int64)
		}
		st.planKinds[e.resolver.KindOfHost(rec.Host)] += rec.Bytes()
	}

	acts := usermetrics.Collect(recs, nil)
	for _, a := range acts {
		st.active = true
		st.daysPerWeek = a.DaysPerWeek(detailWeeks())
		st.txPerHour = a.TxPerActiveHour()
		st.kbPerHour = a.BytesPerActiveHour() / 1024
		st.meanHours = a.MeanHoursPerActiveDay()
		for _, h := range a.HoursPerActiveDay() {
			acc.hoursPerDay.Add(int64(h))
		}
	}

	// Fig 8: per-category volumes with distinct (kind, day) user counts.
	kindDays := make(map[simtime.Day]uint8) // bitmask of kinds seen per day
	for _, rec := range recs {
		k := e.resolver.KindOfHost(rec.Host)
		d := simtime.DayOf(rec.Time)
		if kindDays[d]&(1<<uint(k)) == 0 {
			kindDays[d] |= 1 << uint(k)
			acc.kinds[k].dayUsers[d]++
		}
		acc.kinds[k].tx++
		acc.kinds[k].bytes += rec.Bytes()
	}
}

// addPhoneTraffic folds the user's handset transactions: the comparison
// baseline of Fig 3(a)'s relative factors and Fig 3(c)'s spread.
func (e *engine) addPhoneTraffic(acc *shardAcc, st *userStat, recs []proxylog.Record) {
	for _, rec := range recs {
		acc.phoneTx++
		if simtime.DayOf(rec.Time).IsWeekend() {
			acc.phoneWeekendTx++
		}
		if rec.Time.Hour() >= 18 {
			acc.phoneEveningTx++
		}
		if b := rec.Bytes(); b > 0 {
			st.phoneLog.Add(math.Log(float64(b)))
		}
	}
}

// addApps sessionises and attributes the user's wearable traffic (§5) and
// folds the per-app, per-category and takeaway counters.
func (e *engine) addApps(acc *shardAcc, st *userStat, recs []proxylog.Record, sc *workerScratch) {
	if len(recs) == 0 {
		return
	}
	sc.usages = sc.usages[:0]
	sc.usages = sc.sessions.Append(sc.usages, recs, e.cfg.SessionGap)
	attributed := e.resolver.Attribute(sc.usages)

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
func (e *engine) addMobility(acc *shardAcc, st *userStat, mmeRecs []mme.Record, wearRecs []proxylog.Record, sc *mobmetrics.Scratch) {
	if len(mmeRecs) == 0 {
		return
	}
	window := simtime.Detail()
	isWearDev := func(r mme.Record) bool { return e.env.Devices.IsWearable(r.IMEI) }

	if p, ok := e.analyzer.Profile(mmeRecs, window, isWearDev, sc); ok {
		st.wearMob = newMobScalar(p)
	}
	if !st.wear {
		isRestPhone := func(r mme.Record) bool {
			m, ok := e.env.Devices.Lookup(r.IMEI)
			return ok && m.Class == devicedb.Smartphone
		}
		if p, ok := e.analyzer.Profile(mmeRecs, window, isRestPhone, sc); ok {
			st.restMob = newMobScalar(p)
		}
	}

	if len(wearRecs) > 0 {
		sectors := sc.TxSectors(mmeRecs, wearRecs, isWearDev,
			func(r proxylog.Record) bool { return e.env.Devices.IsWearable(r.IMEI) })
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
func (e *engine) addThroughDevice(acc *shardAcc, st *userStat, recs []proxylog.Record) {
	if st.wear || len(recs) == 0 {
		return // SIM-wearable users are identified directly by TAC
	}
	svcTx := make(map[string]int64)
	for _, rec := range recs {
		if svc, ok := e.detector.ServiceOfHost(rec.Host); ok {
			svcTx[svc]++
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
	for _, rec := range recs {
		if _, ok := e.detector.ServiceOfHost(rec.Host); ok {
			acc.tdHours[rec.Time.Hour()]++
		}
	}
}
