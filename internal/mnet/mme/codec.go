package mme

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/csvrow"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

// csvHeader is the column layout of the CSV form. Every field is a
// number or an event name, so no row is ever quoted, and the reader
// rejects a `"` byte (package csvrow).
const csvHeader = "ts_unix,imsi,imei,sector,event"

// WriteCSV streams records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	return csvrow.Write(w, csvHeader, records, appendRow)
}

func appendRow(row []byte, r Record) []byte {
	row = strconv.AppendInt(row, r.Time.Unix(), 10)
	row = append(row, ',')
	row = csvrow.AppendZeroPadded(row, uint64(r.IMSI), 15)
	row = append(row, ',')
	row = csvrow.AppendZeroPadded(row, uint64(r.IMEI), 15)
	row = append(row, ',')
	row = strconv.AppendUint(row, uint64(r.Sector), 10)
	row = append(row, ',')
	return append(row, r.Event.String()...)
}

// StreamCSV parses a CSV stream written by WriteCSV record by record into
// fn: the bounded-memory path the streaming study engine consumes.
func StreamCSV(r io.Reader, fn func(Record) error) error {
	return csvrow.Stream(r, "mme", csvHeader, parseRow, fn)
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

func parseRow(row [][]byte) (Record, error) {
	ts, err := csvrow.ParseInt(row[0])
	var t simtime.Instant
	if err == nil {
		t, err = simtime.FromUnix(ts, time.Second)
	}
	if err != nil {
		return Record{}, fmt.Errorf("timestamp: %w", err)
	}
	im, err := subs.ParseBytes(row[1])
	if err != nil {
		return Record{}, err
	}
	dev, err := imei.ParseBytes(row[2])
	if err != nil {
		return Record{}, err
	}
	sector, err := csvrow.ParseUint(row[3], math.MaxUint32)
	if err != nil {
		return Record{}, fmt.Errorf("sector: %v", err)
	}
	ev, err := parseEvent(row[4])
	if err != nil {
		return Record{}, err
	}
	return Record{
		Time:   t,
		IMSI:   im,
		IMEI:   dev,
		Sector: cells.SectorID(sector),
		Event:  ev,
	}, nil
}
