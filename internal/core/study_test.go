package core

import (
	"maps"
	"math"
	"strings"
	"sync"
	"testing"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
	"wearwild/internal/stream"
)

// sharedResults runs one generate+study for the whole test file: the
// pipeline is deterministic, so every test can assert on the same run.
var (
	once      sync.Once
	sharedDS  *sim.Dataset
	sharedRes *Results
	sharedErr error
)

func results(t *testing.T) (*sim.Dataset, *Results) {
	t.Helper()
	once.Do(func() {
		cfg := sim.DefaultConfig(1234)
		cfg.Population.WearableUsers = 1200
		cfg.Population.OrdinaryUsers = 3600
		cfg.Cells.UrbanSectors = 700
		cfg.Cells.RuralSectors = 300
		cfg.OrdinaryMobilitySample = 1200
		sharedDS, sharedErr = sim.Generate(cfg)
		if sharedErr != nil {
			return
		}
		sharedRes, sharedErr = RunDataset(sharedDS, DefaultConfig())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDS, sharedRes
}

func TestRunDatasetErrors(t *testing.T) {
	if _, err := RunDataset(nil, DefaultConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestFig2aAdoption(t *testing.T) {
	_, res := results(t)
	a := res.Fig2a
	if a.WearableUsers < 1000 {
		t.Fatalf("wearable users = %d", a.WearableUsers)
	}
	if len(a.Days) < 100 || len(a.Normalized) != len(a.Days) {
		t.Fatalf("series length %d", len(a.Days))
	}
	// Normalised by the final value: the series ends near 1.
	last := a.Normalized[len(a.Normalized)-1]
	if last < 0.9 || last > 1.05 {
		t.Fatalf("final normalised value = %.3f", last)
	}
	// Paper: +1.5%/month, +9% over the window.
	if a.TotalGrowthPct < 4 || a.TotalGrowthPct > 14 {
		t.Fatalf("total growth = %.1f%%, want ≈9%%", a.TotalGrowthPct)
	}
	if a.MonthlyGrowthPct < 0.8 || a.MonthlyGrowthPct > 2.8 {
		t.Fatalf("monthly growth = %.2f%%, want ≈1.5%%", a.MonthlyGrowthPct)
	}
	// Paper: only 34% transmit any data.
	if a.DataActiveShare < 0.27 || a.DataActiveShare > 0.42 {
		t.Fatalf("data-active share = %.3f, want ≈0.34", a.DataActiveShare)
	}
}

func TestFig2bRetention(t *testing.T) {
	_, res := results(t)
	r := res.Fig2b
	if r.FirstWeekUsers == 0 {
		t.Fatal("no first-week users")
	}
	// Paper: 77% retained, 7% gone.
	if r.RetainedFrac < 0.60 || r.RetainedFrac > 0.92 {
		t.Fatalf("retained = %.3f, want ≈0.77", r.RetainedFrac)
	}
	if r.AbandonedFrac < 0.03 || r.AbandonedFrac > 0.12 {
		t.Fatalf("abandoned = %.3f, want ≈0.07", r.AbandonedFrac)
	}
	sum := r.RetainedFrac + r.AbandonedFrac + r.IntermittentFrac
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %.4f", sum)
	}
}

func TestFig3aHourlyPattern(t *testing.T) {
	_, res := results(t)
	h := res.Fig3a
	// Commute-window weekday excess (the paper's only weekday/weekend
	// difference). Compare the SHAPE of the two curves — the share of a
	// day's activity falling in the 4-9am and 4-8pm windows — because the
	// paper also notes wearables are relatively more active on weekends
	// overall, which shifts the weekend level up.
	share := func(series [24]float64) float64 {
		var commute, total float64
		for hr := 0; hr < 24; hr++ {
			total += series[hr]
			switch {
			case hr >= 4 && hr < 9, hr >= 16 && hr < 20:
				commute += series[hr]
			}
		}
		if total == 0 {
			return 0
		}
		return commute / total
	}
	if wd, we := share(h.WeekdayTx), share(h.WeekendTx); wd <= we {
		t.Fatalf("weekday commute share %.3f not above weekend %.3f", wd, we)
	}
	// ≈35% of a week's active users are active on a given day.
	if h.DailyActiveShare < 0.22 || h.DailyActiveShare > 0.50 {
		t.Fatalf("daily active share = %.3f, want ≈0.35", h.DailyActiveShare)
	}
	// Wearables relatively more active on weekends and evenings than the
	// ISP baseline (§4.2).
	if h.RelativeWeekendFactor <= 1.0 || h.RelativeWeekendFactor > 1.6 {
		t.Fatalf("relative weekend factor = %.3f, want slightly above 1", h.RelativeWeekendFactor)
	}
	if h.RelativeEveningFactor <= 1.0 || h.RelativeEveningFactor > 2.0 {
		t.Fatalf("relative evening factor = %.3f, want above 1", h.RelativeEveningFactor)
	}
	// All series sum to roughly one week's worth normalised: each hour is
	// a per-day share of the weekly total, so the total over 24 hours and
	// both day types weighted 5/2 is ≈1.
	var weighted float64
	for hr := 0; hr < 24; hr++ {
		weighted += 5*h.WeekdayTx[hr] + 2*h.WeekendTx[hr]
	}
	if weighted < 0.9 || weighted > 1.1 {
		t.Fatalf("weighted weekly tx share = %.3f, want ≈1", weighted)
	}
}

func TestFig3bActivity(t *testing.T) {
	_, res := results(t)
	b := res.Fig3b
	if b.MeanDays < 0.7 || b.MeanDays > 2.8 {
		t.Fatalf("mean active days/week = %.2f, want ≈1-2", b.MeanDays)
	}
	if b.MeanHours < 2.0 || b.MeanHours > 4.3 {
		t.Fatalf("mean active hours/day = %.2f, want ≈3", b.MeanHours)
	}
	if b.FracUnder5h < 0.68 || b.FracUnder5h > 0.94 {
		t.Fatalf("P(hours<=5) = %.2f, want ≈0.80", b.FracUnder5h)
	}
	if b.FracOver10h < 0.01 || b.FracOver10h > 0.15 {
		t.Fatalf("P(hours>10) = %.3f, want ≈0.07", b.FracOver10h)
	}
	if len(b.DaysPerWeek.X) == 0 || len(b.HoursPerDay.X) == 0 {
		t.Fatal("empty CDFs")
	}
}

func TestFig3cTransactions(t *testing.T) {
	_, res := results(t)
	c := res.Fig3c
	// Paper: sharply centred around 3 KB, 80% below 10 KB.
	if c.MedianSizeBytes < 1800 || c.MedianSizeBytes > 4800 {
		t.Fatalf("median size = %.0f, want ≈3000", c.MedianSizeBytes)
	}
	if c.FracUnder10KB < 0.70 || c.FracUnder10KB > 0.95 {
		t.Fatalf("P(size<=10KB) = %.2f, want ≈0.80", c.FracUnder10KB)
	}
	if len(c.SizeCDF.X) == 0 || len(c.HourlyTxPerUser.X) == 0 || len(c.HourlyKBPerUser.X) == 0 {
		t.Fatal("empty CDFs")
	}
}

func TestFig3dCoupling(t *testing.T) {
	_, res := results(t)
	d := res.Fig3d
	if d.Spearman < 0.2 {
		t.Fatalf("hours-tx Spearman = %.2f, want clearly positive", d.Spearman)
	}
	if len(d.HoursBucket) < 3 {
		t.Fatalf("only %d hour buckets", len(d.HoursBucket))
	}
}

func TestFig4aOwnersVsRest(t *testing.T) {
	_, res := results(t)
	a := res.Fig4a
	// Paper: +26% data, +48% transactions.
	if a.DataGainPct < 8 || a.DataGainPct > 60 {
		t.Fatalf("data gain = %.1f%%, want ≈26%%", a.DataGainPct)
	}
	if a.TxGainPct < 20 || a.TxGainPct > 100 {
		t.Fatalf("tx gain = %.1f%%, want ≈48%%", a.TxGainPct)
	}
	if a.TxGainPct <= a.DataGainPct {
		t.Fatal("tx gain must exceed data gain")
	}
	// CDFs normalised by max: values within [0,1].
	for _, x := range a.OwnerBytes.X {
		if x < 0 || x > 1 {
			t.Fatalf("normalised CDF value %g outside [0,1]", x)
		}
	}
}

func TestFig4bDeviceShare(t *testing.T) {
	_, res := results(t)
	b := res.Fig4b
	// Paper: wearable traffic three orders of magnitude below the total.
	if b.OrdersOfMagnitude < 1.7 || b.OrdersOfMagnitude > 4 {
		t.Fatalf("orders of magnitude = %.2f, want ≈3", b.OrdersOfMagnitude)
	}
	// An upper tail of wearable-heavy users exists (paper: 10% at 3%).
	if b.FracOver3Pct < 0.005 || b.FracOver3Pct > 0.30 {
		t.Fatalf("frac over 3%% = %.3f, want ≈0.10", b.FracOver3Pct)
	}
}

func TestFig4cMobility(t *testing.T) {
	_, res := results(t)
	m := res.Fig4c
	// Paper: owners ≈20 km/day, 90% under ≈30 km, ≈2x the rest, +70%
	// entropy, 60% single-location transmitters.
	if m.OwnerMeanKm < 12 || m.OwnerMeanKm > 30 {
		t.Fatalf("owner mean displacement = %.1f km, want ≈20", m.OwnerMeanKm)
	}
	if m.OwnerP90Km < 18 || m.OwnerP90Km > 55 {
		t.Fatalf("owner p90 = %.1f km, want ≈30", m.OwnerP90Km)
	}
	ratio := m.OwnerMeanKm / m.RestMeanKm
	if ratio < 1.4 || ratio > 3.4 {
		t.Fatalf("owner/rest ratio = %.2f, want ≈2", ratio)
	}
	if m.EntropyGainPct < 20 {
		t.Fatalf("entropy gain = %.1f%%, want large (paper: 70%%)", m.EntropyGainPct)
	}
	if m.SingleLocationFrac < 0.45 || m.SingleLocationFrac > 0.80 {
		t.Fatalf("single-location frac = %.3f, want ≈0.60", m.SingleLocationFrac)
	}
	// Non-stationary users: owners still ahead.
	if m.NonStationaryOwnerMeanKm <= m.NonStationaryRestMeanKm {
		t.Fatal("non-stationary owners not more mobile")
	}
}

func TestFig4dMobilityCoupling(t *testing.T) {
	_, res := results(t)
	d := res.Fig4d
	if d.Spearman < 0.10 {
		t.Fatalf("displacement-activity Spearman = %.2f, want positive", d.Spearman)
	}
	if len(d.DisplacementBucketKm) < 2 {
		t.Fatalf("only %d displacement buckets", len(d.DisplacementBucketKm))
	}
}

func TestFig5aAppPopularity(t *testing.T) {
	_, res := results(t)
	rows := res.Fig5a
	if len(rows) < 30 {
		t.Fatalf("only %d apps observed", len(rows))
	}
	rank := func(name string) int {
		for i, r := range rows {
			if r.App == name {
				return i
			}
		}
		return -1
	}
	// Paper: Weather, Google-Maps, Accuweather lead.
	for _, name := range []string{"Weather", "Google-Maps", "Accuweather"} {
		if i := rank(name); i < 0 || i > 5 {
			t.Fatalf("%s at measured rank %d, want top 6", name, i)
		}
	}
	// Payment systems near the top of the rank.
	for _, name := range []string{"Samsung-Pay", "Android-Pay"} {
		if i := rank(name); i < 0 || i > 15 {
			t.Fatalf("%s at measured rank %d, want near top", name, i)
		}
	}
	// Popularity decays steeply: top app ≫ 30th app.
	if rows[0].DailyUsersSharePct < 20*rows[29].DailyUsersSharePct {
		t.Fatalf("popularity not exponential: top %.3f%% vs 30th %.3f%%",
			rows[0].DailyUsersSharePct, rows[29].DailyUsersSharePct)
	}
	// Shares sum to 100.
	var sum float64
	for _, r := range rows {
		sum += r.DailyUsersSharePct
	}
	if math.Abs(sum-100) > 0.5 {
		t.Fatalf("user shares sum to %.2f", sum)
	}
}

func TestFig5bAppUsage(t *testing.T) {
	_, res := results(t)
	rows := res.Fig5b
	byName := map[string]AppUsage{}
	for _, r := range rows {
		byName[r.App] = r
	}
	// Notification apps: more transactions than data; streaming apps the
	// reverse (§5.1).
	msgr, ok1 := byName["Messenger"]
	wapp, ok2 := byName["WhatsApp"]
	if !ok1 || !ok2 {
		t.Fatal("expected apps missing")
	}
	if msgr.TxSharePct <= msgr.DataSharePct {
		t.Fatalf("Messenger tx share %.3f not above data share %.3f", msgr.TxSharePct, msgr.DataSharePct)
	}
	if wapp.DataSharePct <= wapp.TxSharePct {
		t.Fatalf("WhatsApp data share %.3f not above tx share %.3f", wapp.DataSharePct, wapp.TxSharePct)
	}
}

func TestFig6Categories(t *testing.T) {
	_, res := results(t)
	rows := res.Fig6
	if len(rows) < 10 {
		t.Fatalf("only %d categories", len(rows))
	}
	pos := func(cat apps.Category) int {
		for i, r := range rows {
			if r.Category == cat {
				return i
			}
		}
		return -1
	}
	// Paper: Communication and Shopping lead user associations; Weather
	// and Social follow; Health & Fitness and Lifestyle trail.
	if p := pos(apps.Communication); p < 0 || p > 2 {
		t.Fatalf("Communication at %d", p)
	}
	if p := pos(apps.Shopping); p < 0 || p > 3 {
		t.Fatalf("Shopping at %d", p)
	}
	if p := pos(apps.Weather); p < 0 || p > 4 {
		t.Fatalf("Weather at %d", p)
	}
	hf := pos(apps.HealthFitness)
	if hf >= 0 && hf < len(rows)/2 {
		t.Fatalf("Health-Fitness at %d: should be in the bottom half", hf)
	}
	// Communication dominates data (§6 conclusion).
	var commData, maxData float64
	for _, r := range rows {
		if r.Category == apps.Communication {
			commData = r.DataSharePct
		}
		if r.DataSharePct > maxData {
			maxData = r.DataSharePct
		}
	}
	if commData < maxData*0.5 {
		t.Fatalf("Communication data share %.1f%% far from top %.1f%%", commData, maxData)
	}
}

func TestFig7PerUsage(t *testing.T) {
	_, res := results(t)
	rows := res.Fig7
	byName := map[string]PerUsage{}
	for _, r := range rows {
		byName[r.App] = r
	}
	// Paper: WhatsApp, Deezer, Snapchat top the per-usage data rank; rows
	// are sorted by KB/usage so they should be near the head.
	rank := func(name string) int {
		for i, r := range rows {
			if r.App == name {
				return i
			}
		}
		return -1
	}
	for _, name := range []string{"WhatsApp", "Deezer", "Snapchat"} {
		if i := rank(name); i < 0 || i > 8 {
			t.Fatalf("%s per-usage rank = %d, want top", name, i)
		}
	}
	// Payments at the light tail.
	if i := rank("Samsung-Pay"); i >= 0 && i < len(rows)/2 {
		t.Fatalf("Samsung-Pay per-usage rank = %d, want bottom half", i)
	}
}

func TestFig8ThirdParty(t *testing.T) {
	_, res := results(t)
	app := res.Fig8[apps.KindApplication]
	third := res.Fig8[apps.KindUtilities].DataSharePct +
		res.Fig8[apps.KindAdvertising].DataSharePct +
		res.Fig8[apps.KindAnalytics].DataSharePct
	if app.DataSharePct == 0 || third == 0 {
		t.Fatal("missing kind traffic")
	}
	// Paper: same order of magnitude.
	ratio := app.DataSharePct / third
	if ratio < 0.8 || ratio > 10 {
		t.Fatalf("first/third party ratio = %.2f, want within one OOM", ratio)
	}
	// Advertising and analytics each see a nontrivial user share.
	if res.Fig8[apps.KindAdvertising].UsersSharePct <= 0 || res.Fig8[apps.KindAnalytics].UsersSharePct <= 0 {
		t.Fatal("third-party user shares empty")
	}
	// The plan-cost extension: the ads+analytics overhead share must be
	// consistent with the Fig 8 data shares, and the plan burn positive.
	pc := res.PlanCost
	wantOverhead := (res.Fig8[apps.KindAdvertising].DataSharePct +
		res.Fig8[apps.KindAnalytics].DataSharePct) / 100
	if pc.MeanOverheadShare <= 0 || mathAbs(pc.MeanOverheadShare-wantOverhead) > 0.08 {
		t.Fatalf("plan overhead share %.3f vs Fig8 %.3f", pc.MeanOverheadShare, wantOverhead)
	}
	if pc.MeanPlanSharePct <= 0 || pc.MaxPlanSharePct < pc.MeanPlanSharePct {
		t.Fatalf("plan shares: mean %.3f%% max %.3f%%", pc.MeanPlanSharePct, pc.MaxPlanSharePct)
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestTakeaways(t *testing.T) {
	_, res := results(t)
	tk := res.Takeaways
	// Observed distinct apps per user: the trace-visible counterpart of
	// the paper's mean 8 / 90% < 20 installed apps.
	if tk.MeanAppsPerUser < 3 || tk.MeanAppsPerUser > 11 {
		t.Fatalf("mean apps/user = %.2f", tk.MeanAppsPerUser)
	}
	if tk.FracUnder20Apps < 0.85 {
		t.Fatalf("frac under 20 apps = %.3f, want ≈0.90", tk.FracUnder20Apps)
	}
	if tk.OneAppDayFrac < 0.85 || tk.OneAppDayFrac > 0.995 {
		t.Fatalf("one-app-day frac = %.3f, want ≈0.93", tk.OneAppDayFrac)
	}
	if tk.MaxAppsPerUser < 10 {
		t.Fatalf("max apps/user = %d: no heavy users", tk.MaxAppsPerUser)
	}
}

func TestThroughDevice(t *testing.T) {
	ds, res := results(t)
	td := res.TD
	if td.Identified == 0 {
		t.Fatal("no Through-Device users identified")
	}
	// Ground truth: detected users must be fingerprintable TD users, and
	// coverage of that subset should be nearly complete.
	fingerprintable := 0
	for _, u := range ds.Population.OrdinaryUsers() {
		if u.TDFingerprint != "" {
			fingerprintable++
		}
	}
	if fingerprintable == 0 {
		t.Fatal("no fingerprintable users in ground truth")
	}
	cov := float64(td.Identified) / float64(fingerprintable)
	if cov < 0.85 || cov > 1.0001 {
		t.Fatalf("fingerprint coverage = %.2f of ground truth", cov)
	}
	// TD users show mobility similar to SIM-wearable users (conclusion).
	if td.MeanDispSIMKm <= 0 {
		t.Fatal("missing SIM displacement")
	}
	if td.MeanDispTDKm > 0 {
		ratio := td.MeanDispTDKm / td.MeanDispSIMKm
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("TD/SIM displacement ratio = %.2f, want ≈1", ratio)
		}
	}
	if len(td.ByService) < 2 {
		t.Fatalf("services detected = %v", td.ByService)
	}
	// "Similar macroscopic behavior": TD companion traffic tracks the SIM
	// wearables' hourly rhythm.
	if td.PatternSimilarity < 0.75 {
		t.Fatalf("hourly pattern similarity = %.3f", td.PatternSimilarity)
	}
	// "Relatively modern smartphones".
	if td.MeanPhoneYearTD-td.MeanPhoneYearOther < 0.05 {
		t.Fatalf("TD phone year %.2f not above other %.2f", td.MeanPhoneYearTD, td.MeanPhoneYearOther)
	}
}

// identWorld is the hand-built device table, identities and record makers
// the identification tests share. Its one device DB knows a SIM watch and a
// phone; a third TAC is unknown.
type identWorld struct {
	env                   Env
	watch, phone, unknown imei.IMEI
	alice, bob            subs.IMSI
	reg                   func(subs.IMSI, imei.IMEI) mme.Record
	tx                    func(subs.IMSI, imei.IMEI, string) proxylog.Record
	usage                 func(subs.IMSI, imei.IMEI) udr.Record
	// aliceWatch makes a run identify one wearable user, so RunStream
	// succeeds and the TD rules can be read off bob.
	aliceWatch []mme.Record
}

func newIdentWorld(t *testing.T) identWorld {
	t.Helper()
	tiny, _ := tinyLogs(t)
	db := devicedb.New()
	for _, m := range []devicedb.Model{
		{Name: "Watch", Vendor: "V", OS: "Tizen", Class: devicedb.WearableSIM, Year: 2017, TACs: []imei.TAC{11111111}},
		{Name: "Phone", Vendor: "V", OS: "Android", Class: devicedb.Smartphone, Year: 2017, TACs: []imei.TAC{22222222}},
	} {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	t0 := tiny.MME.Records[0].Time
	sector := tiny.MME.Records[0].Sector
	week := simtime.DayOf(t0).Week()
	w := identWorld{
		env:   Env{Devices: db, Topology: tiny.Topology, Catalog: tiny.Catalog},
		watch: imei.MustNew(11111111, 1), phone: imei.MustNew(22222222, 1), unknown: imei.MustNew(33333333, 1),
		alice: subs.MustNew(1), bob: subs.MustNew(2),
		reg: func(user subs.IMSI, dev imei.IMEI) mme.Record {
			return mme.Record{Time: t0, IMSI: user, IMEI: dev, Sector: sector, Event: mme.Attach}
		},
		tx: func(user subs.IMSI, dev imei.IMEI, host string) proxylog.Record {
			return proxylog.Record{Time: t0, IMSI: user, IMEI: dev, Scheme: proxylog.HTTPS, Host: host, BytesUp: 100, BytesDown: 900}
		},
		usage: func(user subs.IMSI, dev imei.IMEI) udr.Record {
			return udr.Record{Week: week, IMSI: user, IMEI: dev, Bytes: 1000, Transactions: 1}
		},
	}
	w.aliceWatch = []mme.Record{w.reg(w.alice, w.watch)}
	return w
}

// identCase is one hand-built run of RunStream and what it must identify.
type identCase struct {
	name  string
	mme   []mme.Record
	proxy []proxylog.Record
	udr   []udr.Record
	// wear is the identified wearable-user count; 0 means RunStream must
	// fail with no wearable users.
	wear int
	td   map[string]int
}

func runIdentCases(t *testing.T, env Env, cases []identCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &stream.Logs{Proxy: &proxylog.Log{Records: tc.proxy}, MME: &mme.Log{Records: tc.mme}, UDR: &udr.Log{Records: tc.udr}}
			res, err := RunStream(env, src, DefaultConfig())
			if tc.wear == 0 {
				if err == nil || !strings.Contains(err.Error(), "no SIM-enabled wearable users") {
					t.Fatalf("err = %v, want no wearable users identified", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Fig2a.WearableUsers != tc.wear {
				t.Fatalf("wearable users = %d, want %d", res.Fig2a.WearableUsers, tc.wear)
			}
			want := 0
			for _, n := range tc.td {
				want += n
			}
			if res.TD.Identified != want || !maps.Equal(res.TD.ByService, tc.td) {
				t.Fatalf("TD = %d %v, want %d %v", res.TD.Identified, res.TD.ByService, want, tc.td)
			}
		})
	}
}

// TestIdentificationAcrossFeeds pins the §3.2 TAC join in addUser: a
// wearable TAC seen in any one feed makes a wearable user, and phone or
// unknown TACs make none.
func TestIdentificationAcrossFeeds(t *testing.T) {
	w := newIdentWorld(t)
	runIdentCases(t, w.env, []identCase{
		{name: "wearable TAC in MME", mme: w.aliceWatch, wear: 1},
		{name: "wearable TAC in proxy", proxy: []proxylog.Record{w.tx(w.alice, w.watch, "h.example")}, wear: 1},
		{name: "wearable TAC in UDR", udr: []udr.Record{w.usage(w.alice, w.watch)}, wear: 1},
		{name: "wearable TAC in every feed", mme: w.aliceWatch,
			proxy: []proxylog.Record{w.tx(w.alice, w.watch, "h.example")}, udr: []udr.Record{w.usage(w.alice, w.watch)}, wear: 1},
		{name: "phone only", mme: []mme.Record{w.reg(w.alice, w.phone)}, udr: []udr.Record{w.usage(w.alice, w.phone)}},
		{name: "unknown TAC", mme: []mme.Record{w.reg(w.alice, w.unknown)},
			proxy: []proxylog.Record{w.tx(w.alice, w.unknown, "h.example")}, udr: []udr.Record{w.usage(w.alice, w.unknown)}},
		{name: "unknown TAC beside a wearable user", mme: append([]mme.Record{w.reg(w.bob, w.unknown)}, w.aliceWatch...), wear: 1},
	})
}

// TestIdentificationSkipsZeroIDs pins that addUser skips records with a
// zero IMSI or IMEI in every feed.
func TestIdentificationSkipsZeroIDs(t *testing.T) {
	w := newIdentWorld(t)
	runIdentCases(t, w.env, []identCase{
		{name: "zero IMSI", mme: []mme.Record{w.reg(0, w.watch)}, proxy: []proxylog.Record{w.tx(0, w.watch, "h.example")},
			udr: []udr.Record{w.usage(0, w.watch)}},
		{name: "zero IMEI", mme: []mme.Record{w.reg(w.alice, 0)}, proxy: []proxylog.Record{w.tx(w.alice, 0, "h.example")},
			udr: []udr.Record{w.usage(w.alice, 0)}},
	})
}

// TestThroughDeviceRules pins addThroughDevice: the service with the most
// transactions labels a TD user (a tie goes to the lexically smaller name),
// hosts match case-insensitively, and SIM-wearable users are never
// TD-scanned.
func TestThroughDeviceRules(t *testing.T) {
	w := newIdentWorld(t)
	fitbit := population.CompanionDomains["Fitbit"][0]
	strava := population.CompanionDomains["Strava"][0]
	runtastic := population.CompanionDomains["Runtastic"][0]
	runIdentCases(t, w.env, []identCase{
		{name: "TD most transactions wins", mme: w.aliceWatch,
			proxy: []proxylog.Record{w.tx(w.bob, w.phone, fitbit), w.tx(w.bob, w.phone, strava), w.tx(w.bob, w.phone, strava)},
			wear:  1, td: map[string]int{"Strava": 1}},
		{name: "TD tie goes to the smaller name", mme: w.aliceWatch,
			proxy: []proxylog.Record{w.tx(w.bob, w.phone, strava), w.tx(w.bob, w.phone, runtastic)},
			wear:  1, td: map[string]int{"Runtastic": 1}},
		{name: "TD host case-insensitive", mme: w.aliceWatch,
			proxy: []proxylog.Record{w.tx(w.bob, w.phone, strings.ToUpper(fitbit))},
			wear:  1, td: map[string]int{"Fitbit": 1}},
		{name: "SIM-wearable user not TD-scanned", mme: w.aliceWatch,
			proxy: []proxylog.Record{w.tx(w.alice, w.phone, fitbit), w.tx(w.alice, w.watch, strava)}, wear: 1},
	})
}
