// Package sessions reconstructs app usages from the proxy log. The paper
// defines a single usage as a run of transactions by the same device where
// consecutive transactions are less than one minute apart (§5.1); a gap of
// at least the threshold starts a new usage.
package sessions

import (
	"cmp"
	"slices"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// DefaultGap is the paper's one-minute usage boundary.
const DefaultGap = time.Minute

// Usage is one reconstructed app usage.
type Usage struct {
	IMSI    subs.IMSI
	IMEI    imei.IMEI
	Start   simtime.Instant
	End     simtime.Instant
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
	var s Scratch
	return s.Append(nil, records, gap)
}

// Scratch holds the buffer Append groups records in, so sessionising one
// subscriber after another reuses it instead of allocating per call.
type Scratch struct {
	recs []proxylog.Record
}

// Append sessionises records as Sessionize does and appends the usages to
// dst in Sessionize's order. Their Records alias the scratch: they stay
// valid until the next Append on s.
func (s *Scratch) Append(dst []Usage, records []proxylog.Record, gap time.Duration) []Usage {
	if gap <= 0 {
		gap = DefaultGap
	}
	// One stable sort by (subscriber, device, time) lays out each device's
	// records as a contiguous run in the order a per-device stable time
	// sort gives.
	s.recs = append(s.recs[:0], records...)
	slices.SortStableFunc(s.recs, byDeviceTime)
	first := len(dst)
	recs := s.recs
	start := 0
	for i := 1; i <= len(recs); i++ {
		// A device's records are in time order: the unsigned difference
		// is exact past the Duration range.
		if i < len(recs) && recs[i].IMSI == recs[start].IMSI && recs[i].IMEI == recs[start].IMEI &&
			uint64(recs[i].Time-recs[i-1].Time) < uint64(gap) {
			continue
		}
		chunk := recs[start:i]
		dst = append(dst, Usage{
			IMSI:    chunk[0].IMSI,
			IMEI:    chunk[0].IMEI,
			Start:   chunk[0].Time,
			End:     chunk[len(chunk)-1].Time,
			Records: chunk,
		})
		start = i
	}
	// The deterministic output order: by start time, then subscriber/device
	// — a total order, since one device has at most one usage per start
	// instant.
	slices.SortFunc(dst[first:], byStart)
	return dst
}

func byDeviceTime(a, b proxylog.Record) int {
	return cmp.Or(cmp.Compare(a.IMSI, b.IMSI), cmp.Compare(a.IMEI, b.IMEI), cmp.Compare(a.Time, b.Time))
}

func byStart(a, b Usage) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.IMSI, b.IMSI), cmp.Compare(a.IMEI, b.IMEI))
}
