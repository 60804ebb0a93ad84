// Package sessions reconstructs app usages from the proxy log. The paper
// defines a single usage as a run of transactions by the same device where
// consecutive transactions are less than one minute apart (§5.1); a gap of
// at least the threshold starts a new usage.
package sessions

import (
	"sort"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
)

// DefaultGap is the paper's one-minute usage boundary.
const DefaultGap = time.Minute

// Usage is one reconstructed app usage.
type Usage struct {
	IMSI    subs.IMSI
	IMEI    imei.IMEI
	Start   time.Time
	End     time.Time
	Records []proxylog.Record // chronological
}

// Transactions returns the number of transactions in the usage.
func (u *Usage) Transactions() int { return len(u.Records) }

// Bytes returns the usage's total byte count.
func (u *Usage) Bytes() int64 {
	var sum int64
	for _, r := range u.Records {
		sum += r.Bytes()
	}
	return sum
}

// Hosts returns the distinct hosts contacted, in first-seen order.
func (u *Usage) Hosts() []string {
	seen := make(map[string]bool, 4)
	var out []string
	for _, r := range u.Records {
		if !seen[r.Host] {
			seen[r.Host] = true
			out = append(out, r.Host)
		}
	}
	return out
}

// Sessionize groups records into usages per (subscriber, device). Records
// need not be pre-sorted. gap <= 0 selects DefaultGap.
func Sessionize(records []proxylog.Record, gap time.Duration) []Usage {
	if gap <= 0 {
		gap = DefaultGap
	}
	type devKey struct {
		user subs.IMSI
		dev  imei.IMEI
	}
	byDev := make(map[devKey][]proxylog.Record)
	for _, r := range records {
		k := devKey{r.IMSI, r.IMEI}
		byDev[k] = append(byDev[k], r)
	}

	var out []Usage
	for k, recs := range byDev {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		start := 0
		for i := 1; i <= len(recs); i++ {
			if i == len(recs) || recs[i].Time.Sub(recs[i-1].Time) >= gap {
				chunk := recs[start:i]
				out = append(out, Usage{
					IMSI:    k.user,
					IMEI:    k.dev,
					Start:   chunk[0].Time,
					End:     chunk[len(chunk)-1].Time,
					Records: chunk,
				})
				start = i
			}
		}
	}
	// The deterministic output order: by start time, then subscriber/device
	// — a total order, since one device has at most one usage per start
	// instant.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.IMSI != b.IMSI {
			return a.IMSI < b.IMSI
		}
		return a.IMEI < b.IMEI
	})
	return out
}
