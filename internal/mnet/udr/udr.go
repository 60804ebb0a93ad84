// Package udr models per-device usage data records: weekly aggregates of
// bytes and transaction counts that operators derive from charging records.
// The paper's user-level comparisons (Fig 4(a), 4(b) and the five-month
// "only 34% transmit any data" summary) need total volumes per subscriber
// across all their devices; UDRs carry those totals at full fidelity while
// the detailed per-transaction proxy log is only retained for the final
// seven weeks, exactly as in the paper's collection setup (§3.1).
package udr

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"wearwild/internal/mnet/csvrow"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// Record is one device-week aggregate.
type Record struct {
	Week         simtime.Week
	IMSI         subs.IMSI
	IMEI         imei.IMEI
	Bytes        int64
	Transactions int64
}

// Validate checks aggregate invariants.
func (r Record) Validate() error {
	if r.Bytes < 0 || r.Transactions < 0 {
		return fmt.Errorf("udr: negative aggregate")
	}
	if (r.Bytes > 0) != (r.Transactions > 0) {
		return fmt.Errorf("udr: bytes and transactions must be zero together (got %d bytes, %d tx)", r.Bytes, r.Transactions)
	}
	return nil
}

// Log is an in-memory UDR log.
type Log struct {
	Records []Record
}

// Append adds a record.
func (l *Log) Append(r Record) { l.Records = append(l.Records, r) }

// Len returns the record count.
func (l *Log) Len() int { return len(l.Records) }

// Sort orders records by (week, imsi, imei).
func (l *Log) Sort() {
	sort.Slice(l.Records, func(i, j int) bool {
		a, b := l.Records[i], l.Records[j]
		if a.Week != b.Week {
			return a.Week < b.Week
		}
		if a.IMSI != b.IMSI {
			return a.IMSI < b.IMSI
		}
		return a.IMEI < b.IMEI
	})
}

// ByUser groups records per subscriber.
func (l *Log) ByUser() map[subs.IMSI][]Record {
	out := make(map[subs.IMSI][]Record)
	for _, r := range l.Records {
		out[r.IMSI] = append(out[r.IMSI], r)
	}
	return out
}

// csvHeader is the column layout of the CSV form. Every field is a
// number, so no row is ever quoted, and the reader rejects a `"` byte
// (package csvrow).
const csvHeader = "week,imsi,imei,bytes,tx"

// WriteCSV streams records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	return csvrow.Write(w, csvHeader, records, appendRow)
}

func appendRow(row []byte, r Record) []byte {
	row = strconv.AppendInt(row, int64(r.Week), 10)
	row = append(row, ',')
	row = csvrow.AppendZeroPadded(row, uint64(r.IMSI), 15)
	row = append(row, ',')
	row = csvrow.AppendZeroPadded(row, uint64(r.IMEI), 15)
	row = append(row, ',')
	row = strconv.AppendInt(row, r.Bytes, 10)
	row = append(row, ',')
	return strconv.AppendInt(row, r.Transactions, 10)
}

// StreamCSV parses a stream written by WriteCSV record by record into fn:
// the bounded-memory path the streaming study engine consumes.
func StreamCSV(r io.Reader, fn func(Record) error) error {
	return csvrow.Stream(r, "udr", csvHeader, parseRow, fn)
}

func parseRow(row [][]byte) (Record, error) {
	week, err := csvrow.ParseInt(row[0])
	if err != nil {
		return Record{}, fmt.Errorf("week: %v", err)
	}
	im, err := subs.ParseBytes(row[1])
	if err != nil {
		return Record{}, err
	}
	dev, err := imei.ParseBytes(row[2])
	if err != nil {
		return Record{}, err
	}
	bytes, err := csvrow.ParseInt(row[3])
	if err != nil {
		return Record{}, fmt.Errorf("bytes: %v", err)
	}
	tx, err := csvrow.ParseInt(row[4])
	if err != nil {
		return Record{}, fmt.Errorf("tx: %v", err)
	}
	rec := Record{Week: simtime.Week(week), IMSI: im, IMEI: dev, Bytes: bytes, Transactions: tx}
	return rec, rec.Validate()
}

// ReadCSV parses a stream written by WriteCSV: the whole-log convenience
// wrapper over StreamCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	err := StreamCSV(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
