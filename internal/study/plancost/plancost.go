// Package plancost quantifies the discussion attached to the paper's
// Fig 8: third-party advertising and analytics traffic "consumes a
// significant portion of the user's mobile data plan", and "when it comes
// to wearables, the consequences can be even more acute due to ... less
// data allowance in the mobile plan". Given each wearable user's traffic
// volume by transaction category, it estimates the monthly volume and the
// share of a wearable-sized data plan that never benefits the user.
package plancost

import (
	"fmt"

	"wearwild/internal/gen/apps"
)

// DefaultPlanBytes is a typical 2018-era wearable add-on allowance
// (100 MB/month).
const DefaultPlanBytes = 100 << 20

// Report aggregates the cost analysis.
type Report struct {
	PlanBytes float64
	// MeanOverheadShare is the mean advertising+analytics share of user
	// traffic.
	MeanOverheadShare float64
	// MeanPlanSharePct is the mean percentage of the plan burned by
	// advertising+analytics.
	MeanPlanSharePct float64
	// MaxPlanSharePct is the worst-affected user's percentage.
	MaxPlanSharePct float64
}

// Builder folds one user's per-kind byte totals at a time (in ascending
// IMSI order, so the float fold over users is canonical) into the summary
// scalars, so the report costs O(1) per subscriber. Raw byte counts are
// exact integers; the monthly scaling happens once per user here, which is
// why a Builder needs the observation span up front.
type Builder struct {
	rep         *Report
	scale       float64
	overheadSum float64
	planSum     float64
	n           int
}

// NewBuilder prepares a report over the given observation span.
// planBytes <= 0 selects DefaultPlanBytes.
func NewBuilder(windowDays int, planBytes float64) (*Builder, error) {
	if windowDays <= 0 {
		return nil, fmt.Errorf("plancost: windowDays must be positive")
	}
	if planBytes <= 0 {
		planBytes = DefaultPlanBytes
	}
	return &Builder{
		rep:   &Report{PlanBytes: planBytes},
		scale: 30.44 / float64(windowDays),
	}, nil
}

// AddUser folds one subscriber's per-kind byte totals into the report.
// Callers must add users in ascending IMSI order.
func (b *Builder) AddUser(kinds *[apps.NumDomainKinds]int64) {
	// monthly is the per-kind volume scaled to 30.44 days.
	var monthly [apps.NumDomainKinds]float64
	var total float64
	for k, bytes := range kinds {
		monthly[k] = float64(bytes) * b.scale
		total += monthly[k]
	}
	overhead := monthly[apps.KindAdvertising] + monthly[apps.KindAnalytics]
	var overheadShare float64
	if total > 0 {
		overheadShare = overhead / total
	}
	planShare := overhead / b.rep.PlanBytes
	b.overheadSum += overheadShare
	b.planSum += planShare
	if pct := 100 * planShare; pct > b.rep.MaxPlanSharePct {
		b.rep.MaxPlanSharePct = pct
	}
	b.n++
}

// Report finishes the aggregation and returns the report. The builder must
// not be used afterwards.
func (b *Builder) Report() *Report {
	if n := float64(b.n); n > 0 {
		b.rep.MeanOverheadShare = b.overheadSum / n
		b.rep.MeanPlanSharePct = 100 * b.planSum / n
	}
	return b.rep
}
