package proxylog

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"wearwild/internal/mnet/csvrow"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// csvHeader is the column layout of the CSV form. Times are millisecond
// unix timestamps: transactions cluster within seconds. The drop column
// is blank on clean records so the common case costs one byte.
var csvHeader = []string{"ts_ms", "imsi", "imei", "scheme", "host", "path", "up", "down", "dur_ms", "drop"}

// WriteCSV streams records as CSV with a header row. Each row is
// formatted into one reusable scratch buffer (numeric fields appended in
// place, identity fields zero-padded by hand) instead of the per-field
// string allocations an encoding/csv writer would cost; the output stays
// parseable by ReadCSV's encoding/csv reader, including quoting of any
// field that needs it.
func WriteCSV(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(csvHeader, ",") + "\n"); err != nil {
		return err
	}
	var scratch []byte
	for _, r := range records {
		scratch = scratch[:0]
		scratch = strconv.AppendInt(scratch, r.Time.UnixMilli(), 10)
		scratch = append(scratch, ',')
		scratch = csvrow.AppendZeroPadded(scratch, uint64(r.IMSI), 15)
		scratch = append(scratch, ',')
		scratch = csvrow.AppendZeroPadded(scratch, uint64(r.IMEI), 15)
		scratch = append(scratch, ',')
		scratch = append(scratch, r.Scheme.String()...)
		scratch = append(scratch, ',')
		scratch = appendCSVField(scratch, r.Host)
		scratch = append(scratch, ',')
		scratch = appendCSVField(scratch, r.Path)
		scratch = append(scratch, ',')
		scratch = strconv.AppendInt(scratch, r.BytesUp, 10)
		scratch = append(scratch, ',')
		scratch = strconv.AppendInt(scratch, r.BytesDown, 10)
		scratch = append(scratch, ',')
		scratch = strconv.AppendInt(scratch, r.Duration.Milliseconds(), 10)
		scratch = append(scratch, ',')
		if r.Drop != DropNone {
			scratch = append(scratch, r.Drop.String()...)
		}
		scratch = append(scratch, '\n')
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCSVField appends a field, quoting it the way encoding/csv would
// when it contains a separator, quote, newline, or leading whitespace.
func appendCSVField(dst []byte, s string) []byte {
	needsQuote := strings.ContainsAny(s, ",\"\r\n") ||
		(len(s) > 0 && (s[0] == ' ' || s[0] == '\t'))
	if !needsQuote {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"', '"')
			continue
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// StreamCSV parses a stream written by WriteCSV record by record into fn:
// the bounded-memory path the streaming study engine consumes.
func StreamCSV(r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("proxylog: reading header: %w", err)
	}
	if strings.Join(header, ",") != strings.Join(csvHeader, ",") {
		return fmt.Errorf("proxylog: unexpected header %v", header)
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("proxylog: line %d: %w", line, err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return fmt.Errorf("proxylog: line %d: %w", line, err)
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

func parseRow(row []string) (Record, error) {
	if len(row) != len(csvHeader) {
		return Record{}, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(row))
	}
	ts, err := strconv.ParseInt(row[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("timestamp: %v", err)
	}
	im, err := subs.Parse(row[1])
	if err != nil {
		return Record{}, err
	}
	dev, err := imei.Parse(row[2])
	if err != nil {
		return Record{}, err
	}
	scheme, err := ParseScheme(row[3])
	if err != nil {
		return Record{}, err
	}
	up, err := strconv.ParseInt(row[6], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("up bytes: %v", err)
	}
	down, err := strconv.ParseInt(row[7], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("down bytes: %v", err)
	}
	durMs, err := strconv.ParseInt(row[8], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("duration: %v", err)
	}
	drop, err := ParseDropReason(row[9])
	if err != nil {
		return Record{}, err
	}
	rec := Record{
		Time:      time.UnixMilli(ts).UTC(),
		IMSI:      im,
		IMEI:      dev,
		Scheme:    scheme,
		Host:      row[4],
		Path:      row[5],
		BytesUp:   up,
		BytesDown: down,
		Duration:  time.Duration(durMs) * time.Millisecond,
		Drop:      drop,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}
