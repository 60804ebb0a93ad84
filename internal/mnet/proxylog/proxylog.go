// Package proxylog models the transparent Web-proxy vantage point: one
// record per HTTP/HTTPS transaction, carrying the SNI (for HTTPS) or the
// full URL (for HTTP), transferred byte counts and timing (§3.1, §3.3).
// The study's application identification consumes exactly these fields.
package proxylog

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// Scheme is the transaction's protocol as the proxy sees it.
type Scheme uint8

const (
	// HTTP is a cleartext transaction: the proxy logs the full URL.
	HTTP Scheme = iota
	// HTTPS is a TLS transaction: the proxy logs only the SNI host.
	HTTPS
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case HTTP:
		return "http"
	case HTTPS:
		return "https"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// ParseScheme inverts Scheme.String.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "http":
		return HTTP, nil
	case "https":
		return HTTPS, nil
	default:
		return 0, fmt.Errorf("proxylog: unknown scheme %q", s)
	}
}

// DropReason classifies why the proxy ended a connection abnormally.
// DropNone marks a clean transaction; every other value tags a record
// whose byte counts are partial (the connection was cut mid-flight) so
// totals survive failures without lying about completeness.
type DropReason uint8

const (
	// DropNone is a clean, fully relayed transaction.
	DropNone DropReason = iota
	// DropSniff: the first-flight parse failed or timed out (truncated
	// ClientHello, slowloris headers, missing SNI).
	DropSniff
	// DropProtocol: the first bytes were neither a TLS ClientHello nor an
	// HTTP/1.x request.
	DropProtocol
	// DropDial: the origin dial failed or exceeded the dial timeout.
	DropDial
	// DropReplay: replaying the sniffed bytes upstream failed; BytesUp
	// holds the partial write count.
	DropReplay
	// DropIdle: no bytes moved in either direction for the idle timeout.
	DropIdle
	// DropByteCap: the per-connection byte cap was exceeded.
	DropByteCap
	// DropForced: the proxy force-closed the connection at the drain
	// deadline during shutdown.
	DropForced

	// NumDropReasons sizes per-reason counter arrays; every valid
	// DropReason is strictly below it.
	NumDropReasons
)

// String names the drop reason. Later values win ties when two reasons
// race on one connection, so the order above is also a severity order.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropSniff:
		return "sniff"
	case DropProtocol:
		return "protocol"
	case DropDial:
		return "dial"
	case DropReplay:
		return "replay"
	case DropIdle:
		return "idle"
	case DropByteCap:
		return "bytecap"
	case DropForced:
		return "forced"
	default:
		return fmt.Sprintf("drop(%d)", uint8(d))
	}
}

// ParseDropReason inverts DropReason.String. The empty string parses as
// DropNone: the CSV form leaves the column blank on clean records.
func ParseDropReason(s string) (DropReason, error) {
	switch s {
	case "", "none":
		return DropNone, nil
	case "sniff":
		return DropSniff, nil
	case "protocol":
		return DropProtocol, nil
	case "dial":
		return DropDial, nil
	case "replay":
		return DropReplay, nil
	case "idle":
		return DropIdle, nil
	case "bytecap":
		return DropByteCap, nil
	case "forced":
		return DropForced, nil
	default:
		return 0, fmt.Errorf("proxylog: unknown drop reason %q", s)
	}
}

// Record is one proxy log line.
type Record struct {
	Time   time.Time
	IMSI   subs.IMSI
	IMEI   imei.IMEI
	Scheme Scheme
	// Host is the SNI (HTTPS) or URL host (HTTP).
	Host string
	// Path is the URL path for HTTP transactions; empty for HTTPS, where
	// the proxy cannot see past the handshake.
	Path string
	// BytesUp and BytesDown are payload bytes in each direction.
	BytesUp   int64
	BytesDown int64
	// Duration is the transaction duration.
	Duration time.Duration
	// Drop is DropNone for clean transactions; any other value marks the
	// record as truncated and names why the proxy cut the connection.
	Drop DropReason
}

// Bytes returns the transaction's total byte count.
func (r Record) Bytes() int64 { return r.BytesUp + r.BytesDown }

// Truncated reports whether the connection ended abnormally, i.e. the
// byte counts are a partial view of the transaction.
func (r Record) Truncated() bool { return r.Drop != DropNone }

// URL reconstructs the logged URL: scheme://host/path for HTTP, and just
// the host-based form for HTTPS.
func (r Record) URL() string {
	if r.Scheme == HTTP {
		return "http://" + r.Host + r.Path
	}
	return "https://" + r.Host
}

// Validate checks the invariants the generator and proxy must uphold.
func (r Record) Validate() error {
	if r.Host == "" {
		return fmt.Errorf("proxylog: empty host")
	}
	if r.BytesUp < 0 || r.BytesDown < 0 {
		return fmt.Errorf("proxylog: negative byte count")
	}
	if r.Duration < 0 {
		return fmt.Errorf("proxylog: negative duration")
	}
	if r.Scheme == HTTPS && r.Path != "" {
		return fmt.Errorf("proxylog: HTTPS record carries a path")
	}
	if r.Drop >= NumDropReasons {
		return fmt.Errorf("proxylog: unknown drop reason %d", r.Drop)
	}
	return nil
}

// Log is an in-memory proxy log.
type Log struct {
	Records []Record
}

// Append adds a record.
func (l *Log) Append(r Record) { l.Records = append(l.Records, r) }

// Len returns the record count.
func (l *Log) Len() int { return len(l.Records) }

// SortByTime orders records chronologically (stable). Records are large,
// so rather than moving them through a merge sort it sorts a permutation
// keyed on (time, original index), which is the stable order, then
// applies it in place cycle by cycle, moving each record once. int32
// indices reach 2^31 records, over 200 GB of them.
func (l *Log) SortByTime() {
	recs := l.Records
	perm := make([]int32, len(recs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := recs[a].Time.Compare(recs[b].Time); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// perm[i] names the record that belongs at i; a placed slot is marked
	// perm[i] == i.
	for i := range perm {
		if perm[i] == int32(i) {
			continue
		}
		held := recs[i]
		j := int32(i)
		for perm[j] != int32(i) {
			k := perm[j]
			recs[j] = recs[k]
			perm[j] = j
			j = k
		}
		recs[j] = held
		perm[j] = j
	}
}

// Sorted reports whether the log is chronological.
func (l *Log) Sorted() bool {
	for i := 1; i < len(l.Records); i++ {
		if l.Records[i].Time.Before(l.Records[i-1].Time) {
			return false
		}
	}
	return true
}

// ByUser groups records per subscriber, preserving order.
func (l *Log) ByUser() map[subs.IMSI][]Record {
	out := make(map[subs.IMSI][]Record)
	for _, r := range l.Records {
		//wearlint:ignore membound ByUser regroups an already-resident log; no growth beyond the input it was handed
		out[r.IMSI] = append(out[r.IMSI], r)
	}
	return out
}

// TotalBytes sums all transaction bytes.
func (l *Log) TotalBytes() int64 {
	var sum int64
	for _, r := range l.Records {
		sum += r.Bytes()
	}
	return sum
}
