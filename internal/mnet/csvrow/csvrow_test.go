package csvrow_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/csvrow"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
)

// numbers are decimal tokens around every limit the codecs parse at:
// signs, leading zeros, and each width's largest value and the next,
// and two valid ones longer than a read buffer, so a row can span them.
func numbers() []string {
	out := []string{"", "+", "-", "+-1", "--1", "0", "-0", "+0", "00", "007", "+007", "-007",
		" 1", "1 ", "1_000", "0x10", "1e3", "１", "1.5", "\r", "1\r",
		strings.Repeat("0", 5000) + "1", "-" + strings.Repeat("0", 4100) + "9"}
	for _, v := range []uint64{9, 10, 99, math.MaxUint32, math.MaxUint32 + 1, 1e15 - 1, 1e15,
		math.MaxInt64, math.MaxInt64 + 1, math.MaxInt64 + 2, math.MaxUint64 - 1, math.MaxUint64} {
		s := strconv.FormatUint(v, 10)
		out = append(out, s, "+"+s, "-"+s, "000"+s, "-000"+s, s+"0", s+"x")
	}
	for width := 1; width <= 21; width++ {
		out = append(out, strings.Repeat("9", width), "1"+strings.Repeat("0", width-1), "-"+strings.Repeat("9", width))
	}
	return out
}

// TestParseMatchesStrconv holds the in-place parsers to strconv: the
// same value or the same error for every token.
func TestParseMatchesStrconv(t *testing.T) {
	for _, s := range numbers() {
		b := []byte(s)
		same := func(what string, got, want any, gerr, werr error) {
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("%s(%q) = %v, %v; strconv gives %v, %v", what, s, got, gerr, want, werr)
			}
		}
		got, gerr := csvrow.ParseInt(b)
		want, werr := strconv.ParseInt(s, 10, 64)
		if werr != nil {
			want = 0
		}
		same("ParseInt", got, want, gerr, werr)
		for _, bits := range []int{32, 64} {
			got, gerr := csvrow.ParseUint(b, 1<<bits-1)
			want, werr := strconv.ParseUint(s, 10, bits)
			if werr != nil {
				want = 0
			}
			same(fmt.Sprintf("ParseUint/%d", bits), got, want, gerr, werr)
		}
	}
}

func TestAppendZeroPadded(t *testing.T) {
	for _, v := range []uint64{0, 7, 214070000000001, 999999999999999, 1e15, math.MaxUint64} {
		for _, width := range []int{0, 1, 8, 15, 25} {
			if got, want := string(csvrow.AppendZeroPadded([]byte("x"), v, width)), fmt.Sprintf("x%0*d", width, v); got != want {
				t.Errorf("AppendZeroPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}

// The references below are the encoding/csv codecs the MME and UDR logs
// used before package csvrow: the writers quote as encoding/csv does,
// and the readers parse with strconv.

func refWriteMME(w io.Writer, records []mme.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ts_unix", "imsi", "imei", "sector", "event"}); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{strconv.FormatInt(time.Unix(0, int64(r.Time)).Unix(), 10), fmt.Sprintf("%015d", uint64(r.IMSI)),
			fmt.Sprintf("%015d", uint64(r.IMEI)), strconv.FormatUint(uint64(r.Sector), 10), r.Event.String()}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func refWriteUDR(w io.Writer, records []udr.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"week", "imsi", "imei", "bytes", "tx"}); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{strconv.Itoa(int(r.Week)), fmt.Sprintf("%015d", uint64(r.IMSI)),
			fmt.Sprintf("%015d", uint64(r.IMEI)), strconv.FormatInt(r.Bytes, 10), strconv.FormatInt(r.Transactions, 10)}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// refRows reads a header equal to header and then every row with
// encoding/csv, passing each to parse.
func refRows(data []byte, header string, parse func([]string) error) error {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return err
	}
	if strings.Join(head, ",") != header {
		return errors.New("unexpected header")
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := parse(row); err != nil {
			return err
		}
	}
}

func refIMSI(s string) (subs.IMSI, error) {
	if len(s) != 15 {
		return 0, errors.New("not 15 digits")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	return subs.IMSI(v), err
}

func refIMEI(s string) (imei.IMEI, error) {
	if len(s) != 15 {
		return 0, errors.New("not 15 digits")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err == nil && !imei.IMEI(v).Valid() {
		err = errors.New("fails the Luhn check")
	}
	return imei.IMEI(v), err
}

func refReadMME(data []byte) ([]mme.Record, error) {
	var out []mme.Record
	err := refRows(data, "ts_unix,imsi,imei,sector,event", func(row []string) error {
		ts, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return err
		}
		if ts > math.MaxInt64/int64(time.Second) || ts < math.MinInt64/int64(time.Second) {
			return errors.New("timestamp outside the Instant range")
		}
		im, err := refIMSI(row[1])
		if err != nil {
			return err
		}
		dev, err := refIMEI(row[2])
		if err != nil {
			return err
		}
		sector, err := strconv.ParseUint(row[3], 10, 32)
		if err != nil {
			return err
		}
		ev, err := mme.ParseEvent(row[4])
		if err != nil {
			return err
		}
		out = append(out, mme.Record{Time: simtime.Instant(ts * int64(time.Second)), IMSI: im, IMEI: dev, Sector: cells.SectorID(sector), Event: ev})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func refReadUDR(data []byte) ([]udr.Record, error) {
	var out []udr.Record
	err := refRows(data, "week,imsi,imei,bytes,tx", func(row []string) error {
		week, err := strconv.Atoi(row[0])
		if err != nil {
			return err
		}
		im, err := refIMSI(row[1])
		if err != nil {
			return err
		}
		dev, err := refIMEI(row[2])
		if err != nil {
			return err
		}
		bytes, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return err
		}
		tx, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return err
		}
		rec := udr.Record{Week: simtime.Week(week), IMSI: im, IMEI: dev, Bytes: bytes, Transactions: tx}
		if err := rec.Validate(); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// codec is one log's reader under test, its reference, a sample log, and
// the valid and the other tokens random rows draw each column from.
type codec struct {
	name      string
	read, ref func([]byte) (any, error)
	discard   func([]byte) error // streams into a sink that keeps nothing
	header    string
	sample    []byte
	valid     [5][]string
	tokens    [5][]string
}

func codecs(t *testing.T) []codec {
	t0 := simtime.Instant(time.Date(2018, 1, 10, 8, 0, 0, 0, time.UTC).UnixNano())
	dev := func(n uint32) imei.IMEI { return imei.MustNew(35332011, n) }
	mmeRecs := []mme.Record{
		{Time: t0, IMSI: subs.MustNew(1), IMEI: dev(1), Sector: 5, Event: mme.Attach},
		{Time: t0.Add(time.Hour), IMSI: subs.MustNew(2), IMEI: dev(2), Sector: 4294967295, Event: mme.Update},
		{Time: simtime.Instant(-time.Second), IMSI: subs.MustNew(1), IMEI: dev(1), Sector: 0, Event: mme.Detach},
	}
	udrRecs := []udr.Record{
		{Week: 0, IMSI: subs.MustNew(1), IMEI: dev(1), Bytes: 480000, Transactions: 120},
		{Week: 21, IMSI: subs.MustNew(2), IMEI: dev(2), Bytes: 0, Transactions: 0},
		{Week: -3, IMSI: subs.MustNew(9), IMEI: dev(9), Bytes: math.MaxInt64, Transactions: 1},
	}
	var m, u bytes.Buffer
	if err := mme.WriteCSV(&m, mmeRecs); err != nil {
		t.Fatal(err)
	}
	if err := udr.WriteCSV(&u, udrRecs); err != nil {
		t.Fatal(err)
	}
	ids := func(valid bool) (imsis, imeis []string) {
		if valid {
			return []string{subs.MustNew(1).String(), subs.MustNew(42).String()}, []string{dev(1).String(), dev(999999).String()}
		}
		bad := []string{"21407000000001", "2140700000000001", "+21407000000001", "-21407000000001", "21407000000000x",
			"000000000000000", "999999999999999", "", dev(1).String()[:14] + "0"}
		return bad, bad
	}
	imsis, imeis := ids(true)
	badIMSIs, badIMEIs := ids(false)
	nums := numbers()
	return []codec{{
		name: "mme",
		read: func(b []byte) (any, error) { return mme.ReadCSV(bytes.NewReader(b)) },
		ref:  func(b []byte) (any, error) { return refReadMME(b) },
		discard: func(b []byte) error {
			return mme.StreamCSV(bytes.NewReader(b), func(mme.Record) error { return nil })
		},
		header: "ts_unix,imsi,imei,sector,event",
		sample: m.Bytes(),
		valid:  [5][]string{{"1515571200", "0", "-1"}, imsis, imeis, {"0", "5", "4294967295"}, {"attach", "update", "detach"}},
		tokens: [5][]string{nums, badIMSIs, badIMEIs, nums, {"Attach", "attach ", "", "event(7)", "detach\r"}},
	}, {
		name: "udr",
		read: func(b []byte) (any, error) { return udr.ReadCSV(bytes.NewReader(b)) },
		ref:  func(b []byte) (any, error) { return refReadUDR(b) },
		discard: func(b []byte) error {
			return udr.StreamCSV(bytes.NewReader(b), func(udr.Record) error { return nil })
		},
		header: "week,imsi,imei,bytes,tx",
		sample: u.Bytes(),
		valid:  [5][]string{{"0", "21", "-3"}, imsis, imeis, {"0", "1", "480000"}, {"0", "1", "120"}},
		tokens: [5][]string{nums, badIMSIs, badIMEIs, nums, nums},
	}}
}

// same checks one input against the reference: a reader rejects every
// input with a `"` byte, and accepts any other exactly when the
// reference does, with the same records.
func (c codec) same(t *testing.T, in []byte) {
	t.Helper()
	got, gerr := c.read(in)
	if bytes.IndexByte(in, '"') >= 0 {
		if gerr == nil {
			t.Errorf("%s: accepted an input with a quote: %q", c.name, in)
		}
		return
	}
	want, werr := c.ref(in)
	if (gerr == nil) != (werr == nil) {
		t.Errorf("%s: %q: got error %v, reference %v", c.name, in, gerr, werr)
	} else if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %q: got %v, reference %v", c.name, in, got, want)
	}
}

// TestWritersMatchEncodingCSV: the row-buffer writers emit the bytes
// encoding/csv did, out to the widest values and an unnamed event.
func TestWritersMatchEncodingCSV(t *testing.T) {
	r := randx.New(29)
	for range 200 {
		var ms []mme.Record
		var us []udr.Record
		for range r.IntN(5) {
			v := r.Uint64()
			ms = append(ms, mme.Record{Time: simtime.Instant(int64(v) >> r.IntN(64)), IMSI: subs.IMSI(v >> r.IntN(64)),
				IMEI: imei.IMEI(r.Uint64() >> r.IntN(64)), Sector: cells.SectorID(v), Event: mme.Event(r.IntN(5))})
			us = append(us, udr.Record{Week: simtime.Week(int64(v) >> r.IntN(64)), IMSI: subs.IMSI(v), IMEI: imei.IMEI(v >> 13),
				Bytes: int64(r.Uint64()) >> r.IntN(64), Transactions: -int64(v) >> r.IntN(64)})
		}
		var got, want bytes.Buffer
		if err := mme.WriteCSV(&got, ms); err != nil {
			t.Fatal(err)
		}
		if err := refWriteMME(&want, ms); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("mme:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
		got.Reset()
		want.Reset()
		if err := udr.WriteCSV(&got, us); err != nil {
			t.Fatal(err)
		}
		if err := refWriteUDR(&want, us); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("udr:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	}
}

// TestMMERejectsSecondsPastInstant: a timestamp of more seconds than an
// Instant holds fails to decode with simtime.ErrRange instead of
// wrapping, and the last second on either side decodes exactly.
func TestMMERejectsSecondsPastInstant(t *testing.T) {
	const maxSec = math.MaxInt64 / int64(time.Second)
	read := func(ts int64) ([]mme.Record, error) {
		return mme.ReadCSV(strings.NewReader(fmt.Sprintf("ts_unix,imsi,imei,sector,event\n%d,%s,%s,5,attach\n",
			ts, subs.MustNew(1), imei.MustNew(35332011, 1))))
	}
	for _, ts := range []int64{-maxSec, maxSec} {
		if recs, err := read(ts); err != nil || len(recs) != 1 || recs[0].Time.Unix() != ts {
			t.Errorf("ts %d: got %v, %v", ts, recs, err)
		}
	}
	for _, ts := range []int64{math.MinInt64, -maxSec - 1, maxSec + 1, math.MaxInt64} {
		if _, err := read(ts); !errors.Is(err, simtime.ErrRange) || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("ts %d: got %v, want a line-2 simtime.ErrRange", ts, err)
		}
	}
}

// TestReadersMatchEncodingCSV holds the MME and UDR readers to their
// encoding/csv references over every truncation and byte substitution
// of a sample log, and over random logs whose rows mix valid fields with
// tokens at every limit, with LF or CRLF endings, blank lines, a last
// line with or without its newline, and a lone `\r` before EOF.
func TestReadersMatchEncodingCSV(t *testing.T) {
	r := randx.New(29)
	for _, c := range codecs(t) {
		for i := range len(c.sample) + 1 {
			c.same(t, c.sample[:i])
		}
		for i := range c.sample {
			for _, sub := range []byte{c.sample[i] ^ 0x01, c.sample[i] ^ 0x20, c.sample[i] ^ 0xff, '\r', '\n', ',', '+', '-', '0', ' '} {
				in := bytes.Clone(c.sample)
				in[i] = sub
				c.same(t, in)
			}
		}
		endings := []string{"\n", "\r\n", "\n\n", "\r\n\r\n", "\n\r\n", "\r\r\n"}
		accepted := 0
		for range 3000 {
			var b strings.Builder
			b.WriteString(c.header)
			for range r.IntN(4) {
				b.WriteString(endings[r.IntN(len(endings))])
				n := 5
				if r.Bool(0.05) {
					n = 4 + 2*r.IntN(2) // a field short or over
				}
				for f := range n {
					if f > 0 {
						b.WriteByte(',')
					}
					pool := c.valid[f%5]
					if r.Bool(0.05) {
						pool = c.tokens[f%5]
					}
					b.WriteString(pool[r.IntN(len(pool))])
				}
			}
			b.WriteString([]string{"", "\n", "\r\n", "\r", "\n\n"}[r.IntN(5)])
			in := []byte(b.String())
			c.same(t, in)
			if _, err := c.read(in); err == nil {
				accepted++
			}
		}
		if accepted < 1000 {
			t.Errorf("%s: only %d of 3000 random logs were valid", c.name, accepted)
		}
	}
}

// TestReadersRejectQuotes: a `"` anywhere in a log is an error, even
// where encoding/csv would read a quoted field as the same value.
func TestReadersRejectQuotes(t *testing.T) {
	for _, c := range codecs(t) {
		for i := range len(c.sample) + 1 {
			c.same(t, append(append(bytes.Clone(c.sample[:i]), '"'), c.sample[i:]...))
		}
		line := bytes.IndexByte(c.sample, '\n') + 1
		field := bytes.IndexByte(c.sample[line:], ',') + line
		quoted := fmt.Appendf(nil, "%s\"%s\"%s", c.sample[:line], c.sample[line:field], c.sample[field:])
		if _, err := c.ref(quoted); err != nil {
			t.Fatalf("%s: the reference rejects a quoted field: %v", c.name, err)
		}
		if _, err := c.read(quoted); !errors.Is(err, csvrow.ErrQuote) || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%s: quoted field: got %v, want a line-2 quote error", c.name, err)
		}
	}
}

// TestReadersAllocatePerStream: reading a log allocates a fixed number
// of objects, however many rows it holds.
func TestReadersAllocatePerStream(t *testing.T) {
	for _, c := range codecs(t) {
		rows := c.sample[bytes.IndexByte(c.sample, '\n')+1:]
		long := append(bytes.Clone(c.sample), bytes.Repeat(rows, 300)...)
		stream := func(in []byte) func() {
			return func() {
				if err := c.discard(in); err != nil {
					t.Fatal(err)
				}
			}
		}
		if short, long := testing.AllocsPerRun(10, stream(c.sample)), testing.AllocsPerRun(10, stream(long)); long != short {
			t.Errorf("%s: %v allocations for %d rows, %v for 3", c.name, long, 3+900, short)
		}
	}
}
