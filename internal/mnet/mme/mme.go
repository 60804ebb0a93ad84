// Package mme models the Mobility Management Entity vantage point: the
// component that "keeps track of the sector (i.e., antenna/tower) where the
// subscribers are at any given time" (§3.1). Its log is a time-ordered
// stream of registration and sector-update events.
package mme

import (
	"fmt"
	"slices"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// Event is the kind of MME record.
type Event uint8

const (
	// Attach is the initial registration of a device on the network. A
	// device with no data plan still attaches — the paper notes such
	// wearables are "only registered with the MME" (§4.1).
	Attach Event = iota
	// Update is a tracking-area/sector update while attached.
	Update
	// Detach is a deregistration.
	Detach
)

// String names the event for logs.
func (e Event) String() string {
	switch e {
	case Attach:
		return "attach"
	case Update:
		return "update"
	case Detach:
		return "detach"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// ParseEvent inverts Event.String.
func ParseEvent(s string) (Event, error) {
	switch s {
	case "attach":
		return Attach, nil
	case "update":
		return Update, nil
	case "detach":
		return Detach, nil
	default:
		return 0, fmt.Errorf("mme: unknown event %q", s)
	}
}

// Record is one MME log line.
type Record struct {
	Time   time.Time
	IMSI   subs.IMSI
	IMEI   imei.IMEI
	Sector cells.SectorID
	Event  Event
}

// Log is an in-memory MME log.
type Log struct {
	Records []Record
}

// Append adds a record.
func (l *Log) Append(r Record) { l.Records = append(l.Records, r) }

// Len returns the record count.
func (l *Log) Len() int { return len(l.Records) }

// SortByTime orders records chronologically (stable, so equal-time records
// keep generation order).
func (l *Log) SortByTime() {
	slices.SortStableFunc(l.Records, func(a, b Record) int { return a.Time.Compare(b.Time) })
}

// Sorted reports whether the log is in chronological order.
func (l *Log) Sorted() bool {
	for i := 1; i < len(l.Records); i++ {
		if l.Records[i].Time.Before(l.Records[i-1].Time) {
			return false
		}
	}
	return true
}

// ByUser groups record indices per subscriber, preserving order.
func (l *Log) ByUser() map[subs.IMSI][]Record {
	out := make(map[subs.IMSI][]Record)
	for _, r := range l.Records {
		//wearlint:ignore membound ByUser regroups an already-resident log; no growth beyond the input it was handed
		out[r.IMSI] = append(out[r.IMSI], r)
	}
	return out
}
