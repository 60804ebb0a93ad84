package core

import (
	"math"
	"sort"

	"wearwild/internal/simtime"
	"wearwild/internal/sortx"
	"wearwild/internal/stats"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/plancost"
)

// finalize turns the merged partial into the Results tree. All non-exact
// float folds happen here, sequentially, in canonical order (sorted
// subscriber, day, week or app-name keys) — the merge that precedes this
// pass only ever combined exact integer partials, so the output is
// identical at every Workers setting. users holds the per-subscriber
// residues in ascending IMSI order.
func (e *engine) finalize(acc *partial, users []residue) (*Results, error) {
	res := &Results{}
	days := sortx.Keys(acc.grid) // days with wearable traffic, ascending
	e.adoption(res, acc)
	e.retention(res, acc)
	e.hourlyPattern(res, acc)
	// planCost reads the per-user residues before userFigures, which
	// releases each userStat as it folds it.
	if err := e.planCost(res, days, users); err != nil {
		return nil, err
	}
	e.userFigures(res, acc, users)
	e.sizeFigures(res, acc)
	e.appFigures(res, acc)
	res.Weekly = weeklyFrom(acc, days)
	return res, nil
}

// adoption computes Fig 2(a).
func (e *engine) adoption(res *Results, acc *partial) {
	// Days stays non-nil without presence, so it encodes as [], not null.
	days := []simtime.Day{}
	var counts []float64
	for i, n := range acc.presence {
		if n > 0 {
			days = append(days, simtime.FullStudy().Start+simtime.Day(i))
			counts = append(counts, float64(n))
		}
	}
	norm := make([]float64, len(counts))
	if n := len(counts); n > 0 && counts[n-1] > 0 {
		for i, c := range counts {
			norm[i] = c / counts[n-1]
		}
	}
	res.Fig2a.Days = days
	res.Fig2a.Normalized = norm

	// Growth: total from week-averaged endpoints, monthly rate from a
	// least-squares line over the whole daily series (robust to the
	// day-to-day registration noise a thousands-scale sample carries).
	if len(counts) >= 14 {
		first := mean(counts[:7])
		last := mean(counts[len(counts)-7:])
		if first > 0 {
			res.Fig2a.TotalGrowthPct = 100 * (last/first - 1)
		}
		slope, intercept := linearFit(days, counts)
		if start := intercept + slope*float64(days[0]); start > 0 {
			res.Fig2a.MonthlyGrowthPct = 100 * slope * 30.44 / start
		}
	}

	res.Fig2a.WearableUsers = int(acc.wearUsers)
	if acc.wearUsers > 0 {
		res.Fig2a.DataActiveShare = float64(acc.dataActive) / float64(acc.wearUsers)
	}
}

// retention computes Fig 2(b).
func (e *engine) retention(res *Results, acc *partial) {
	res.Fig2b.FirstWeekUsers = int(acc.firstWeek)
	if acc.firstWeek == 0 {
		return
	}
	n := float64(acc.firstWeek)
	res.Fig2b.RetainedFrac = float64(acc.retained) / n
	res.Fig2b.AbandonedFrac = float64(acc.abandoned) / n
	res.Fig2b.IntermittentFrac = 1 - res.Fig2b.RetainedFrac - res.Fig2b.AbandonedFrac
}

// hourlyPattern computes Fig 3(a) from the integer grid.
func (e *engine) hourlyPattern(res *Results, acc *partial) {
	var weekdayDays, weekendDays, dayUsers int64
	var wu, eu, wt, et, wb, eb [24]int64
	var totTx, totBytes, weekendTx, eveningTx int64
	for d, cell := range acc.grid {
		weekend := d.IsWeekend()
		if weekend {
			weekendDays++
		} else {
			weekdayDays++
		}
		dayUsers += cell.users
		for h, c := range cell.hours {
			if weekend {
				eu[h] += c.users
				et[h] += c.tx
				eb[h] += c.bytes
				weekendTx += c.tx
			} else {
				wu[h] += c.users
				wt[h] += c.tx
				wb[h] += c.bytes
			}
			if h >= 18 {
				eveningTx += c.tx
			}
			totTx += c.tx
			totBytes += c.bytes
		}
	}

	// Weekly normalisers: average per-week distinct users, transactions
	// and bytes.
	var weeklyUserSum int64
	for _, n := range acc.weekUsers {
		weeklyUserSum += n
	}
	var weeklyUsers float64
	if n := float64(len(acc.weekUsers)); n > 0 {
		weeklyUsers = float64(weeklyUserSum) / n
	}
	weeks := float64(detailWeeks())
	weeklyTx := float64(totTx) / weeks
	weeklyBytes := float64(totBytes) / weeks

	norm := func(sum [24]int64, daysN int64, weekly float64) [24]float64 {
		var out [24]float64
		if daysN == 0 || weekly == 0 {
			return out
		}
		for h := 0; h < 24; h++ {
			out[h] = float64(sum[h]) / float64(daysN) / weekly
		}
		return out
	}
	res.Fig3a.WeekdayUsers = norm(wu, weekdayDays, weeklyUsers)
	res.Fig3a.WeekendUsers = norm(eu, weekendDays, weeklyUsers)
	res.Fig3a.WeekdayTx = norm(wt, weekdayDays, weeklyTx)
	res.Fig3a.WeekendTx = norm(et, weekendDays, weeklyTx)
	res.Fig3a.WeekdayBytes = norm(wb, weekdayDays, weeklyBytes)
	res.Fig3a.WeekendBytes = norm(eb, weekendDays, weeklyBytes)

	if len(acc.grid) > 0 && weeklyUsers > 0 {
		res.Fig3a.DailyActiveShare = float64(dayUsers) / float64(len(acc.grid)) / weeklyUsers
	}

	// Relative weekend/evening usage vs the ISP baseline (§4.2): the
	// wearables' share of transactions on weekends (and evening hours)
	// against the same share in the sampled handset traffic. Exact integer
	// counts; the shares divide once here.
	share := func(hit, total int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(hit) / float64(total)
	}
	if base := share(acc.phoneWeekendTx, acc.phoneTx); base > 0 {
		res.Fig3a.RelativeWeekendFactor = share(weekendTx, totTx) / base
	}
	if base := share(acc.phoneEveningTx, acc.phoneTx); base > 0 {
		res.Fig3a.RelativeEveningFactor = share(eveningTx, totTx) / base
	}
}

// userFigures folds the per-subscriber residues in sorted IMSI order into
// every per-user figure: Fig 3(b/d), the per-user half of Fig 3(c),
// Fig 4(a–d), the §4.3 takeaways and the Through-Device comparison.
func (e *engine) userFigures(res *Results, acc *partial, users []residue) {
	var daysPerWeek, txPH, kbPH []float64
	var wearLog, phoneLog stats.Summary
	var cxs, cys []float64
	cBuckets := make(map[int]*stats.Summary)

	var ownerB, restB, shares []float64
	var ownerT, restT, ownerBS, restBS stats.Summary

	const minEntropyDays = 5
	var ownerDisp, restDisp []float64
	var ownerEnt, restEnt, ownerMoving, restMoving stats.Summary
	var mxs, mys []float64
	mBuckets := make(map[int]*stats.Summary)

	var appsPerUser []float64
	maxApps := 0

	var tdDisp, tdYear, otherYear stats.Summary
	byService := make(map[string]int)
	identified := 0

	for i := range users {
		st := users[i].st

		if st.active {
			daysPerWeek = append(daysPerWeek, st.daysPerWeek)
			txPH = append(txPH, st.txPerHour)
			kbPH = append(kbPH, st.kbPerHour)
			if st.meanHours > 0 {
				cxs = append(cxs, st.meanHours)
				cys = append(cys, st.txPerHour)
				b := int(math.Round(st.meanHours))
				if cBuckets[b] == nil {
					cBuckets[b] = &stats.Summary{}
				}
				cBuckets[b].Add(st.txPerHour)
			}
		}
		wearLog.Merge(st.wearLog)
		phoneLog.Merge(st.phoneLog)

		if st.hasTotals {
			t := &st.totals
			if st.wear {
				ownerB = append(ownerB, float64(t.Bytes))
				ownerBS.Add(float64(t.Bytes))
				ownerT.Add(float64(t.Transactions))
				if t.WearableBytes != 0 && t.Bytes != 0 {
					shares = append(shares, t.WearableShare())
				}
			} else {
				restB = append(restB, float64(t.Bytes))
				restBS.Add(float64(t.Bytes))
				restT.Add(float64(t.Transactions))
			}
		}

		if m := st.wearMob; m != nil {
			ownerDisp = append(ownerDisp, m.meanKm)
			if m.days >= minEntropyDays {
				ownerEnt.Add(m.entropy)
			}
			if !m.stationary {
				ownerMoving.Add(m.meanKm)
			}
			if st.active {
				mxs = append(mxs, m.meanKm)
				mys = append(mys, st.txPerHour)
				b := int(math.Round(m.meanKm / 5)) // 5 km buckets
				if mBuckets[b] == nil {
					mBuckets[b] = &stats.Summary{}
				}
				mBuckets[b].Add(st.txPerHour)
			}
		}
		if m := st.restMob; m != nil {
			restDisp = append(restDisp, m.meanKm)
			if m.days >= minEntropyDays {
				restEnt.Add(m.entropy)
			}
			if !m.stationary {
				restMoving.Add(m.meanKm)
			}
		}

		if st.appCount > 0 {
			appsPerUser = append(appsPerUser, float64(st.appCount))
			if st.appCount > maxApps {
				maxApps = st.appCount
			}
		}

		if st.tdService != "" {
			identified++
			byService[st.tdService]++
			if st.restMob != nil {
				tdDisp.Add(st.restMob.meanKm)
			}
		}
		if !st.wear && st.phoneYear > 0 {
			if st.tdService != "" {
				tdYear.Add(float64(st.phoneYear))
			} else {
				otherYear.Add(float64(st.phoneYear))
			}
		}

		// The residue is fully folded; release it so peak memory during
		// this pass trades the per-user maps for the figure samples
		// instead of holding both.
		users[i].st = nil
	}

	// Fig 3(b). The hours-per-active-day distribution comes from the exact
	// counting ECDF (its queries match an ECDF over the expanded per-day
	// sample bit for bit), so it never re-materialises one float per
	// active day here.
	ed := stats.NewECDF(daysPerWeek)
	res.Fig3b.DaysPerWeek = e.series(ed)
	hx, hp := acc.hoursPerDay.Points(cdfPoints)
	res.Fig3b.HoursPerDay = Series{X: hx, P: hp}
	res.Fig3b.MeanDays = ed.Mean()
	res.Fig3b.MeanHours = acc.hoursPerDay.Mean()
	res.Fig3b.FracUnder5h = acc.hoursPerDay.At(5)
	res.Fig3b.FracOver10h = 1 - acc.hoursPerDay.At(10)

	// Fig 3(c), per-user half.
	res.Fig3c.HourlyTxPerUser = e.cdf(txPH)
	res.Fig3c.HourlyKBPerUser = e.cdf(kbPH)
	res.Fig3c.WearableLogSizeStd = wearLog.Std()
	res.Fig3c.PhoneLogSizeStd = phoneLog.Std()

	// Fig 3(d).
	for _, k := range sortx.Keys(cBuckets) {
		if cBuckets[k].N() < 3 {
			continue // too thin to plot
		}
		res.Fig3d.HoursBucket = append(res.Fig3d.HoursBucket, float64(k))
		res.Fig3d.TxPerHour = append(res.Fig3d.TxPerHour, cBuckets[k].Mean())
	}
	res.Fig3d.Spearman = stats.Spearman(cxs, cys)

	// Fig 4(a): normalise both CDFs by the global maximum, as the paper
	// does for confidentiality.
	var max float64
	for _, v := range ownerB {
		if v > max {
			max = v
		}
	}
	for _, v := range restB {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range ownerB {
			ownerB[i] /= max
		}
		for i := range restB {
			restB[i] /= max
		}
	}
	res.Fig4a.OwnerBytes = e.cdf(ownerB)
	res.Fig4a.RestBytes = e.cdf(restB)
	if restBS.Mean() > 0 {
		res.Fig4a.DataGainPct = 100 * (ownerBS.Mean()/restBS.Mean() - 1)
	}
	if restT.Mean() > 0 {
		res.Fig4a.TxGainPct = 100 * (ownerT.Mean()/restT.Mean() - 1)
	}

	// Fig 4(b).
	eb := stats.NewECDF(shares)
	res.Fig4b.ShareCDF = e.series(eb)
	res.Fig4b.MedianShare = eb.Quantile(0.5)
	res.Fig4b.FracOver3Pct = 1 - eb.At(0.03)
	if res.Fig4b.MedianShare > 0 {
		res.Fig4b.OrdersOfMagnitude = math.Log10(1 / res.Fig4b.MedianShare)
	}

	// Fig 4(c).
	eo := stats.NewECDF(ownerDisp)
	er := stats.NewECDF(restDisp)
	res.Fig4c.OwnerDisplacement = e.series(eo)
	res.Fig4c.RestDisplacement = e.series(er)
	res.Fig4c.OwnerMeanKm = eo.Mean()
	res.Fig4c.RestMeanKm = er.Mean()
	res.Fig4c.OwnerP90Km = eo.Quantile(0.9)
	if restEnt.Mean() > 0 {
		res.Fig4c.EntropyGainPct = 100 * (ownerEnt.Mean()/restEnt.Mean() - 1)
	}
	res.Fig4c.NonStationaryOwnerMeanKm = ownerMoving.Mean()
	res.Fig4c.NonStationaryRestMeanKm = restMoving.Mean()
	if acc.txWithData > 0 {
		res.Fig4c.SingleLocationFrac = float64(acc.txSingleLoc) / float64(acc.txWithData)
	}

	// Fig 4(d).
	for _, k := range sortx.Keys(mBuckets) {
		if mBuckets[k].N() < 3 {
			continue
		}
		res.Fig4d.DisplacementBucketKm = append(res.Fig4d.DisplacementBucketKm, float64(k*5))
		res.Fig4d.TxPerHour = append(res.Fig4d.TxPerHour, mBuckets[k].Mean())
	}
	res.Fig4d.Spearman = stats.Spearman(mxs, mys)

	// §4.3 takeaways.
	ea := stats.NewECDF(appsPerUser)
	res.Takeaways.MeanAppsPerUser = ea.Mean()
	res.Takeaways.FracUnder20Apps = ea.At(19.5)
	res.Takeaways.MaxAppsPerUser = maxApps
	if acc.activeAppDays > 0 {
		res.Takeaways.OneAppDayFrac = float64(acc.oneAppDays) / float64(acc.activeAppDays)
	}

	// Through-Device (conclusion).
	res.TD.Identified = identified
	res.TD.ByService = byService
	res.TD.MeanDispSIMKm = res.Fig4c.OwnerMeanKm
	res.TD.MeanDispTDKm = tdDisp.Mean()
	res.TD.MeanPhoneYearTD = tdYear.Mean()
	res.TD.MeanPhoneYearOther = otherYear.Mean()
	var simTx [24]int64
	for _, cell := range acc.grid {
		for h, c := range cell.hours {
			simTx[h] += c.tx
		}
	}
	var sim, td [24]float64
	for h := range sim {
		sim[h] = float64(simTx[h])
		td[h] = float64(acc.tdHours[h])
	}
	res.TD.PatternSimilarity = cosine(sim[:], td[:])
}

// sizeFigures computes the size-distribution half of Fig 3(c) from the
// counting ECDF and the log-binned histogram.
func (e *engine) sizeFigures(res *Results, acc *partial) {
	xs, ps := acc.sizes.Points(cdfPoints)
	res.Fig3c.SizeCDF = Series{X: xs, P: ps}
	res.Fig3c.MedianSizeBytes = acc.sizes.Quantile(0.5)
	res.Fig3c.FracUnder10KB = acc.sizes.At(10 * 1024)

	fracs := acc.sizeHist.Fractions()
	for i := 0; i < acc.sizeHist.Bins(); i++ {
		lo, hi := acc.sizeHist.BinEdges(i)
		res.Fig3c.SizeHistogram = append(res.Fig3c.SizeHistogram, HistBin{Lo: lo, Hi: hi, Share: fracs[i]})
	}
}

// appFigures computes Figs 5–8 from the exact per-app integer aggregates.
func (e *engine) appFigures(res *Results, acc *partial) {
	names := sortx.Keys(acc.apps)

	var totAssoc, totUsedDays, totUsages, totTx, totBytes float64
	type appTotals struct {
		assoc, usedDaysPerUser float64
	}
	perApp := make(map[string]appTotals, len(names))
	for _, name := range names {
		a := acc.apps[name]
		assoc := float64(a.dayUserPairs)
		usedDaysPerUser := float64(a.dayUserPairs) / float64(a.users)
		perApp[name] = appTotals{assoc: assoc, usedDaysPerUser: usedDaysPerUser}
		totAssoc += assoc
		totUsedDays += usedDaysPerUser
		totUsages += float64(a.usages)
		totTx += float64(a.tx)
		totBytes += float64(a.bytes)
	}

	pct := func(v, tot float64) float64 {
		if tot == 0 {
			return 0
		}
		return 100 * v / tot
	}

	for _, name := range names {
		a := acc.apps[name]
		res.Fig5a = append(res.Fig5a, AppPopularity{
			App:                name,
			DailyUsersSharePct: pct(perApp[name].assoc, totAssoc),
			UsedDaysSharePct:   pct(perApp[name].usedDaysPerUser, totUsedDays),
		})
		res.Fig5b = append(res.Fig5b, AppUsage{
			App:          name,
			FreqSharePct: pct(float64(a.usages), totUsages),
			TxSharePct:   pct(float64(a.tx), totTx),
			DataSharePct: pct(float64(a.bytes), totBytes),
		})
		res.Fig7 = append(res.Fig7, PerUsage{
			App:          name,
			TxPerUsage:   float64(a.tx) / float64(a.usages),
			KBPerUsage:   float64(a.bytes) / 1024 / float64(a.usages),
			UsageSamples: int(a.usages),
		})
	}
	// Stable sorts over the name-ordered rows: apps with identical shares
	// keep a deterministic (alphabetical) relative order.
	sort.SliceStable(res.Fig5a, func(i, j int) bool { return res.Fig5a[i].DailyUsersSharePct > res.Fig5a[j].DailyUsersSharePct })
	sort.SliceStable(res.Fig5b, func(i, j int) bool { return res.Fig5b[i].FreqSharePct > res.Fig5b[j].FreqSharePct })
	sort.SliceStable(res.Fig7, func(i, j int) bool { return res.Fig7[i].KBPerUsage > res.Fig7[j].KBPerUsage })

	// Fig 6: category shares. The (day, user) associations were deduped
	// per category at eviction time; usages, transactions and bytes sum
	// over the category's apps.
	type catSums struct {
		usages, tx, bytes int64
	}
	cats := make(map[apps.Category]*catSums)
	for _, name := range names {
		a := acc.apps[name]
		c := cats[a.app.Category]
		if c == nil {
			c = &catSums{}
			cats[a.app.Category] = c
		}
		c.usages += a.usages
		c.tx += a.tx
		c.bytes += a.bytes
	}
	var totCatAssoc float64
	for _, cat := range sortx.Keys(acc.catDayPairs) {
		totCatAssoc += float64(acc.catDayPairs[cat])
	}
	for _, cat := range sortx.Keys(cats) {
		c := cats[cat]
		res.Fig6 = append(res.Fig6, CategoryShare{
			Category:      cat,
			UsersSharePct: pct(float64(acc.catDayPairs[cat]), totCatAssoc),
			FreqSharePct:  pct(float64(c.usages), totUsages),
			TxSharePct:    pct(float64(c.tx), totTx),
			DataSharePct:  pct(float64(c.bytes), totBytes),
		})
	}
	sort.SliceStable(res.Fig6, func(i, j int) bool { return res.Fig6[i].UsersSharePct > res.Fig6[j].UsersSharePct })

	// Fig 8: transaction categories over all wearable records.
	var totKindUsers, totKindTx, totKindBytes float64
	kindUsers := make([]float64, apps.NumDomainKinds)
	for i := range acc.kinds {
		kindUsers[i] = float64(acc.kinds[i].userDays)
		totKindUsers += kindUsers[i]
		totKindTx += float64(acc.kinds[i].tx)
		totKindBytes += float64(acc.kinds[i].bytes)
	}
	for i := range acc.kinds {
		res.Fig8[i] = DomainKindShare{
			Kind:          apps.DomainKind(i),
			UsersSharePct: pct(kindUsers[i], totKindUsers),
			FreqSharePct:  pct(float64(acc.kinds[i].tx), totKindTx),
			DataSharePct:  pct(float64(acc.kinds[i].bytes), totKindBytes),
		}
	}
}

// planCost computes the Fig 8 discussion's data-plan overhead from the
// per-user per-kind byte residues, over the span of the ascending days
// with wearable traffic.
func (e *engine) planCost(res *Results, days []simtime.Day, users []residue) error {
	windowDays := 1
	if n := len(days); n > 0 {
		windowDays = int(days[n-1]-days[0]) + 1
	}
	b, err := plancost.NewBuilder(windowDays, 0)
	if err != nil {
		return err
	}
	for _, u := range users {
		if k := u.st.planKinds; k != nil {
			b.AddUser(k)
		}
	}
	rep := b.Report()
	res.PlanCost = PlanCost{
		PlanMB:            rep.PlanBytes / (1 << 20),
		MeanOverheadShare: rep.MeanOverheadShare,
		MeanPlanSharePct:  rep.MeanPlanSharePct,
		MaxPlanSharePct:   rep.MaxPlanSharePct,
	}
	return nil
}

// weeklyFrom derives the §4.2 weekly stability analysis from the grid's
// per-day totals, folded over days in ascending order.
func weeklyFrom(acc *partial, days []simtime.Day) WeeklyTrend {
	var out WeeklyTrend
	first, end := simtime.Detail().Start.Week(), simtime.Detail().End.Week()
	for w := first; w < end; w++ {
		out.Weeks = append(out.Weeks, WeekRow{Week: w, ActiveUsers: int(acc.weekUsers[w])})
	}

	var dowTx [7]int64
	var totTx int64
	var dailyTx, dailyBytes stats.Summary
	for _, d := range days {
		var tx, bytes int64
		for _, c := range acc.grid[d].hours {
			tx += c.tx
			bytes += c.bytes
		}
		if w := d.Week(); w >= first && w < end {
			out.Weeks[w-first].Tx += tx
			out.Weeks[w-first].Bytes += bytes
		}
		dowTx[(int(d)%7+7)%7] += tx // epoch is a Monday; floor mod for days before it
		totTx += tx
		dailyTx.Add(float64(tx))
		dailyBytes.Add(float64(bytes))
	}
	if totTx > 0 {
		for i, v := range dowTx {
			out.DayOfWeekTxShare[i] = float64(v) / float64(totTx)
		}
	}

	cv := func(s stats.Summary) float64 {
		if s.Mean() == 0 {
			return 0
		}
		return s.Std() / s.Mean()
	}
	out.TxCV = cv(dailyTx)
	out.BytesCV = cv(dailyBytes)
	return out
}

// cdf converts a sample to an exported Series.
func (e *engine) cdf(sample []float64) Series {
	return e.series(stats.NewECDF(sample))
}

// series exports an already-built ECDF.
func (e *engine) series(ec *stats.ECDF) Series {
	xs, ps := ec.Points(cdfPoints)
	return Series{X: xs, P: ps}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// linearFit returns the least-squares slope and intercept of counts over
// day indices.
func linearFit(days []simtime.Day, counts []float64) (slope, intercept float64) {
	n := float64(len(days))
	if n < 2 {
		return 0, mean(counts)
	}
	var sx, sy, sxx, sxy float64
	for i, d := range days {
		x := float64(d)
		sx += x
		sy += counts[i]
		sxx += x * x
		sxy += x * counts[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// cosine returns the cosine similarity of two non-negative vectors.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
