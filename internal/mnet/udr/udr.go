// Package udr models per-device usage data records: weekly aggregates of
// bytes and transaction counts that operators derive from charging records.
// The paper's user-level comparisons (Fig 4(a), 4(b) and the five-month
// "only 34% transmit any data" summary) need total volumes per subscriber
// across all their devices; UDRs carry those totals at full fidelity while
// the detailed per-transaction proxy log is only retained for the final
// seven weeks, exactly as in the paper's collection setup (§3.1).
package udr

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

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

var csvHeader = []string{"week", "imsi", "imei", "bytes", "tx"}

// WriteCSV streams records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, r := range records {
		row[0] = strconv.Itoa(int(r.Week))
		row[1] = r.IMSI.String()
		row[2] = r.IMEI.String()
		row[3] = strconv.FormatInt(r.Bytes, 10)
		row[4] = strconv.FormatInt(r.Transactions, 10)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StreamCSV parses a stream written by WriteCSV record by record into fn:
// the bounded-memory path the streaming study engine consumes.
func StreamCSV(r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("udr: reading header: %w", err)
	}
	if strings.Join(header, ",") != strings.Join(csvHeader, ",") {
		return fmt.Errorf("udr: unexpected header %v", header)
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("udr: line %d: %w", line, err)
		}
		week, err := strconv.Atoi(row[0])
		if err != nil {
			return fmt.Errorf("udr: line %d: week: %v", line, err)
		}
		im, err := subs.Parse(row[1])
		if err != nil {
			return fmt.Errorf("udr: line %d: %v", line, err)
		}
		dev, err := imei.Parse(row[2])
		if err != nil {
			return fmt.Errorf("udr: line %d: %v", line, err)
		}
		bytes, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return fmt.Errorf("udr: line %d: bytes: %v", line, err)
		}
		tx, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return fmt.Errorf("udr: line %d: tx: %v", line, err)
		}
		rec := Record{Week: simtime.Week(week), IMSI: im, IMEI: dev, Bytes: bytes, Transactions: tx}
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("udr: line %d: %v", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
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
