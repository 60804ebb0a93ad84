package core

import (
	"wearwild/internal/simtime"
)

// WeeklyTrend is the §4.2 stability check: the paper reports "no clear
// weekly pattern — all metrics are almost constant across days", and that
// ≈35% of a week's active users are active on any given day. One row per
// detail week plus day-of-week aggregate stability.
type WeeklyTrend struct {
	Weeks []WeekRow
	// DayOfWeekTxShare[d] is day-of-week d's share (Monday=0) of weekly
	// transactions; flat ≈ 1/7 each per the paper.
	DayOfWeekTxShare [7]float64
	// TxCV is the coefficient of variation of daily transaction counts
	// across the window: the "almost constant" claim quantified.
	TxCV float64
	// BytesCV is the analogue for bytes.
	BytesCV float64
}

// WeekRow is one detail week's totals.
type WeekRow struct {
	Week        simtime.Week
	ActiveUsers int
	Tx          int64
	Bytes       int64
}
