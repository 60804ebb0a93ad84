// Package experiments defines one reproduction experiment per figure and
// quantitative takeaway of the paper: the paper-reported value, the band we
// accept as "shape holds", and how to extract the measured value from a
// study run. The table drives wearstudy -eval and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"slices"

	"wearwild/internal/core"
	"wearwild/internal/gen/apps"
)

// Metric is one paper-vs-measured comparison.
type Metric struct {
	Name     string
	Unit     string
	Paper    float64 // the paper's reported value
	Measured float64
	Lo, Hi   float64 // acceptance band for "shape holds"
	// Missing marks a rank metric whose app or category has no row in
	// its figure: there is nothing to measure, so the metric is a miss.
	Missing bool
}

// OK reports whether the measured value falls in the acceptance band.
func (m Metric) OK() bool { return !m.Missing && m.Measured >= m.Lo && m.Measured <= m.Hi }

// String renders one comparison row.
func (m Metric) String() string {
	status := "OK"
	if !m.OK() {
		status = "MISS"
	}
	measured := fmt.Sprintf("%8.2f%-4s", m.Measured, m.Unit)
	if m.Missing {
		measured = fmt.Sprintf("%-12s", "missing")
	}
	return fmt.Sprintf("%-34s paper=%8.2f%-4s measured=%s band=[%.2f, %.2f] %s",
		m.Name, m.Paper, m.Unit, measured, m.Lo, m.Hi, status)
}

// Experiment is one figure's reproduction definition.
type Experiment struct {
	// ID is the index key used in DESIGN.md (F2a ... T2).
	ID    string
	Title string
	// Workload describes the scenario parameters that produce the figure.
	Workload string
	// Modules lists the packages that implement the pieces.
	Modules string
	// Extract pulls the comparison metrics out of a study run.
	Extract func(*core.Results) []Metric
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{
			ID: "F2a", Title: "Fig 2(a) — adoption of SIM-enabled wearables",
			Workload: "five-month MME presence of wearable TACs; weekly UDR any-traffic flag",
			Modules:  "gen/population, gen/sim, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "total growth", Unit: "%", Paper: 9, Measured: r.Fig2a.TotalGrowthPct, Lo: 4, Hi: 14},
					{Name: "monthly growth", Unit: "%", Paper: 1.5, Measured: r.Fig2a.MonthlyGrowthPct, Lo: 0.8, Hi: 2.8},
					{Name: "ever-transmitting share", Unit: "", Paper: 0.34, Measured: r.Fig2a.DataActiveShare, Lo: 0.27, Hi: 0.42},
				}
			},
		},
		{
			ID: "F2b", Title: "Fig 2(b) — first week vs last week",
			Workload: "first-week wearable users tracked to the final week",
			Modules:  "gen/population, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "retained in last week", Unit: "", Paper: 0.77, Measured: r.Fig2b.RetainedFrac, Lo: 0.60, Hi: 0.92},
					{Name: "abandoned", Unit: "", Paper: 0.07, Measured: r.Fig2b.AbandonedFrac, Lo: 0.03, Hi: 0.12},
				}
			},
		},
		{
			ID: "F3a", Title: "Fig 3(a) — hourly usage pattern",
			Workload: "hour-of-day histograms of users/tx/bytes, weekday vs weekend, weekly-normalised",
			Modules:  "gen/traffic, core",
			Extract: func(r *core.Results) []Metric {
				commuteShare := func(s [24]float64) float64 {
					var c, t float64
					for h := 0; h < 24; h++ {
						t += s[h]
						if (h >= 4 && h < 9) || (h >= 16 && h < 20) {
							c += s[h]
						}
					}
					if t == 0 {
						return 0
					}
					return c / t
				}
				excess := commuteShare(r.Fig3a.WeekdayTx) - commuteShare(r.Fig3a.WeekendTx)
				return []Metric{
					{Name: "daily share of weekly actives", Unit: "", Paper: 0.35, Measured: r.Fig3a.DailyActiveShare, Lo: 0.22, Hi: 0.50},
					{Name: "weekday commute-share excess", Unit: "", Paper: 0.05, Measured: excess, Lo: 0.001, Hi: 0.5},
					{Name: "relative weekend usage", Unit: "x", Paper: 1.1, Measured: r.Fig3a.RelativeWeekendFactor, Lo: 1.005, Hi: 1.6},
				}
			},
		},
		{
			ID: "F3b", Title: "Fig 3(b) — active days and hours",
			Workload: "per-user active days/week and hours/day CDFs over the 7-week window",
			Modules:  "stats, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "mean active days/week", Unit: "d", Paper: 1, Measured: r.Fig3b.MeanDays, Lo: 0.7, Hi: 2.8},
					{Name: "mean active hours/day", Unit: "h", Paper: 3, Measured: r.Fig3b.MeanHours, Lo: 2.0, Hi: 4.3},
					{Name: "days under 5h", Unit: "", Paper: 0.80, Measured: r.Fig3b.FracUnder5h, Lo: 0.68, Hi: 0.94},
					{Name: "days over 10h", Unit: "", Paper: 0.07, Measured: r.Fig3b.FracOver10h, Lo: 0.01, Hi: 0.15},
				}
			},
		},
		{
			ID: "F3c", Title: "Fig 3(c) — transaction sizes",
			Workload: "size distribution of all wearable transactions; per-user hourly rates",
			Modules:  "gen/traffic, stats, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "median size", Unit: "B", Paper: 3000, Measured: r.Fig3c.MedianSizeBytes, Lo: 1800, Hi: 4800},
					{Name: "share under 10KB", Unit: "", Paper: 0.80, Measured: r.Fig3c.FracUnder10KB, Lo: 0.70, Hi: 0.95},
					{Name: "phone/wearable size spread", Unit: "x", Paper: 1.5, Measured: safeRatio(r.Fig3c.PhoneLogSizeStd, r.Fig3c.WearableLogSizeStd), Lo: 1.05, Hi: 4},
				}
			},
		},
		{
			ID: "F3d", Title: "Fig 3(d) — transactions vs active hours",
			Workload: "per-user (active hours/day, tx/hour) correlation",
			Modules:  "stats, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "Spearman(hours, tx/hour)", Unit: "", Paper: 0.5, Measured: r.Fig3d.Spearman, Lo: 0.2, Hi: 1},
				}
			},
		},
		{
			ID: "F4a", Title: "Fig 4(a) — owners vs remaining customers",
			Workload: "per-user UDR totals, wearable owners vs rest, normalised CDFs",
			Modules:  "gen/traffic, study/usermetrics, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "data gain", Unit: "%", Paper: 26, Measured: r.Fig4a.DataGainPct, Lo: 8, Hi: 60},
					{Name: "transaction gain", Unit: "%", Paper: 48, Measured: r.Fig4a.TxGainPct, Lo: 20, Hi: 100},
				}
			},
		},
		{
			ID: "F4b", Title: "Fig 4(b) — wearable share of owner traffic",
			Workload: "wearable vs total bytes per owner over the detail window",
			Modules:  "study/usermetrics, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "orders of magnitude below", Unit: "", Paper: 3, Measured: r.Fig4b.OrdersOfMagnitude, Lo: 1.7, Hi: 4},
					{Name: "users at ≥3% share", Unit: "", Paper: 0.10, Measured: r.Fig4b.FracOver3Pct, Lo: 0.005, Hi: 0.30},
				}
			},
		},
		{
			ID: "F4c", Title: "Fig 4(c) — max displacement & entropy",
			Workload: "daily max antenna displacement and dwell-weighted location entropy",
			Modules:  "gen/mobility, study/mobmetrics, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "owner mean displacement", Unit: "km", Paper: 20, Measured: r.Fig4c.OwnerMeanKm, Lo: 12, Hi: 30},
					{Name: "owner p90 displacement", Unit: "km", Paper: 30, Measured: r.Fig4c.OwnerP90Km, Lo: 18, Hi: 55},
					{Name: "owner/rest ratio", Unit: "x", Paper: 1.94, Measured: safeRatio(r.Fig4c.OwnerMeanKm, r.Fig4c.RestMeanKm), Lo: 1.4, Hi: 3.4},
					{Name: "entropy gain", Unit: "%", Paper: 70, Measured: r.Fig4c.EntropyGainPct, Lo: 20, Hi: 150},
					{Name: "single-location users", Unit: "", Paper: 0.60, Measured: r.Fig4c.SingleLocationFrac, Lo: 0.45, Hi: 0.80},
				}
			},
		},
		{
			ID: "F4d", Title: "Fig 4(d) — displacement vs hourly activity",
			Workload: "per-user (mean displacement, tx/hour) correlation",
			Modules:  "study/mobmetrics, stats, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "Spearman(disp, tx/hour)", Unit: "", Paper: 0.3, Measured: r.Fig4d.Spearman, Lo: 0.1, Hi: 1},
				}
			},
		},
		{
			ID: "F5a", Title: "Fig 5(a) — app popularity",
			Workload: "per-app daily associated users and used days, percent of daily total",
			Modules:  "gen/apps, study/appid, study/sessions, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					ranked(Metric{Name: "Weather measured rank", Paper: 1, Lo: 1, Hi: 4}, rankOfApp(r.Fig5a, "Weather")),
					ranked(Metric{Name: "Google-Maps measured rank", Paper: 2, Lo: 1, Hi: 6}, rankOfApp(r.Fig5a, "Google-Maps")),
					ranked(Metric{Name: "Accuweather measured rank", Paper: 3, Lo: 1, Hi: 6}, rankOfApp(r.Fig5a, "Accuweather")),
					ranked(Metric{Name: "Samsung-Pay measured rank", Paper: 9, Lo: 1, Hi: 16}, rankOfApp(r.Fig5a, "Samsung-Pay")),
					{Name: "top1/top30 popularity ratio", Unit: "x", Paper: 100, Measured: top30Ratio(r.Fig5a), Lo: 20, Hi: 1e6},
				}
			},
		},
		{
			ID: "F5b", Title: "Fig 5(b) — app usage, transactions, data",
			Workload: "per-app usage frequency, transaction and data shares",
			Modules:  "study/sessions, study/appid, core",
			Extract: func(r *core.Results) []Metric {
				msgr := usageOfApp(r.Fig5b, "Messenger")
				wapp := usageOfApp(r.Fig5b, "WhatsApp")
				return []Metric{
					{Name: "Messenger tx/data share ratio", Unit: "x", Paper: 2, Measured: safeRatio(msgr.TxSharePct, msgr.DataSharePct), Lo: 1.01, Hi: 100},
					{Name: "WhatsApp data/tx share ratio", Unit: "x", Paper: 3, Measured: safeRatio(wapp.DataSharePct, wapp.TxSharePct), Lo: 1.01, Hi: 100},
				}
			},
		},
		{
			ID: "F6", Title: "Fig 6 — category popularity",
			Workload: "category shares of users, usage frequency, transactions and data",
			Modules:  "gen/apps, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					ranked(Metric{Name: "Communication user rank", Paper: 1, Lo: 1, Hi: 3}, rankOfCat(r.Fig6, apps.Communication)),
					ranked(Metric{Name: "Shopping user rank", Paper: 2, Lo: 1, Hi: 4}, rankOfCat(r.Fig6, apps.Shopping)),
					ranked(Metric{Name: "Weather user rank", Paper: 4, Lo: 1, Hi: 5}, rankOfCat(r.Fig6, apps.Weather)),
					ranked(Metric{Name: "Health-Fitness user rank", Paper: 14, Lo: 8, Hi: 15}, rankOfCat(r.Fig6, apps.HealthFitness)),
				}
			},
		},
		{
			ID: "F7", Title: "Fig 7 — per-usage transactions and data",
			Workload: "per-app mean transactions and KB per single usage",
			Modules:  "study/sessions, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					ranked(Metric{Name: "WhatsApp KB/usage rank", Paper: 1, Lo: 1, Hi: 9}, rankOfUsage(r.Fig7, "WhatsApp")),
					ranked(Metric{Name: "Deezer KB/usage rank", Paper: 2, Lo: 1, Hi: 9}, rankOfUsage(r.Fig7, "Deezer")),
					ranked(Metric{Name: "Snapchat KB/usage rank", Paper: 3, Lo: 1, Hi: 9}, rankOfUsage(r.Fig7, "Snapchat")),
				}
			},
		},
		{
			ID: "F8", Title: "Fig 8 — applications and third-party services",
			Workload: "transaction-category shares of users/frequency/data",
			Modules:  "study/appid, core",
			Extract: func(r *core.Results) []Metric {
				third := r.Fig8[apps.KindUtilities].DataSharePct +
					r.Fig8[apps.KindAdvertising].DataSharePct +
					r.Fig8[apps.KindAnalytics].DataSharePct
				return []Metric{
					{Name: "first/third party data ratio", Unit: "x", Paper: 3, Measured: safeRatio(r.Fig8[apps.KindApplication].DataSharePct, third), Lo: 0.8, Hi: 10},
					{Name: "advertising data share", Unit: "%", Paper: 5, Measured: r.Fig8[apps.KindAdvertising].DataSharePct, Lo: 0.5, Hi: 25},
				}
			},
		},
		{
			ID: "T1", Title: "§4.3 — apps per user",
			Workload: "distinct apps observed per user; one-app days",
			Modules:  "gen/traffic, study/sessions, study/appid, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "mean apps/user (observed)", Unit: "", Paper: 8, Measured: r.Takeaways.MeanAppsPerUser, Lo: 3, Hi: 11},
					{Name: "users under 20 apps", Unit: "", Paper: 0.90, Measured: r.Takeaways.FracUnder20Apps, Lo: 0.85, Hi: 1},
					{Name: "one-app days", Unit: "", Paper: 0.93, Measured: r.Takeaways.OneAppDayFrac, Lo: 0.85, Hi: 0.995},
				}
			},
		},
		{
			ID: "T2", Title: "Conclusion — Through-Device fingerprinting",
			Workload: "companion-domain scan of non-wearable users' phone traffic",
			Modules:  "study/fingerprint, core",
			Extract: func(r *core.Results) []Metric {
				return []Metric{
					{Name: "identified TD users", Unit: "", Paper: 0, Measured: float64(r.TD.Identified), Lo: 1, Hi: 1e9},
					{Name: "TD/SIM displacement ratio", Unit: "x", Paper: 1, Measured: safeRatio(r.TD.MeanDispTDKm, r.TD.MeanDispSIMKm), Lo: 0.5, Hi: 2},
					{Name: "TD phone-year gain", Unit: "y", Paper: 0.5, Measured: r.TD.MeanPhoneYearTD - r.TD.MeanPhoneYearOther, Lo: 0.05, Hi: 3},
					{Name: "TD hourly-pattern similarity", Unit: "", Paper: 0.95, Measured: r.TD.PatternSimilarity, Lo: 0.75, Hi: 1},
				}
			},
		},
	}
}

// Evaluated pairs an experiment with its extracted metrics.
type Evaluated struct {
	Experiment
	Metrics []Metric
}

// Evaluate runs every experiment's extraction over one study result.
func Evaluate(res *core.Results) []Evaluated {
	exps := All()
	out := make([]Evaluated, 0, len(exps))
	for _, e := range exps {
		out = append(out, Evaluated{Experiment: e, Metrics: e.Extract(res)})
	}
	return out
}

// ranked completes a rank metric from a 0-based row index: the 1-based
// rank, or a miss marked Missing when the row is absent (index -1).
func ranked(m Metric, i int) Metric {
	if i < 0 {
		m.Missing = true
	} else {
		m.Measured = float64(i + 1)
	}
	return m
}

func rankOfApp(rows []core.AppPopularity, name string) int {
	return slices.IndexFunc(rows, func(r core.AppPopularity) bool { return r.App == name })
}

func rankOfUsage(rows []core.PerUsage, name string) int {
	return slices.IndexFunc(rows, func(r core.PerUsage) bool { return r.App == name })
}

func rankOfCat(rows []core.CategoryShare, cat apps.Category) int {
	return slices.IndexFunc(rows, func(r core.CategoryShare) bool { return r.Category == cat })
}

func usageOfApp(rows []core.AppUsage, name string) core.AppUsage {
	for _, r := range rows {
		if r.App == name {
			return r
		}
	}
	return core.AppUsage{App: name}
}

func top30Ratio(rows []core.AppPopularity) float64 {
	if len(rows) < 30 || rows[29].DailyUsersSharePct == 0 {
		return 0
	}
	return rows[0].DailyUsersSharePct / rows[29].DailyUsersSharePct
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
