package mme

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

// csvHeader is the column layout of the CSV form.
var csvHeader = []string{"ts_unix", "imsi", "imei", "sector", "event"}

// WriteCSV streams records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, r := range records {
		row[0] = strconv.FormatInt(r.Time.Unix(), 10)
		row[1] = r.IMSI.String()
		row[2] = r.IMEI.String()
		row[3] = strconv.FormatUint(uint64(r.Sector), 10)
		row[4] = r.Event.String()
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StreamCSV parses a CSV stream written by WriteCSV record by record into
// fn: the bounded-memory path the streaming study engine consumes.
func StreamCSV(r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("mme: reading header: %w", err)
	}
	if strings.Join(header, ",") != strings.Join(csvHeader, ",") {
		return fmt.Errorf("mme: unexpected header %v", header)
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mme: line %d: %w", line, err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return fmt.Errorf("mme: line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// ReadCSV parses a CSV stream written by WriteCSV: the whole-log
// convenience wrapper over StreamCSV.
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
	sector, err := strconv.ParseUint(row[3], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("sector: %v", err)
	}
	ev, err := ParseEvent(row[4])
	if err != nil {
		return Record{}, err
	}
	return Record{
		Time:   time.Unix(ts, 0).UTC(),
		IMSI:   im,
		IMEI:   dev,
		Sector: cells.SectorID(sector),
		Event:  ev,
	}, nil
}
