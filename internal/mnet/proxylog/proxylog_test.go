package proxylog

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/simtime"
)

func sampleRecords() []Record {
	t0 := simtime.Instant(time.Date(2018, 3, 1, 7, 30, 0, 0, time.UTC).UnixNano())
	return []Record{
		{Time: t0, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Scheme: HTTPS,
			Host: "api.weather.example.com", BytesUp: 412, BytesDown: 2831, Duration: 320 * time.Millisecond},
		{Time: t0.Add(41 * time.Second), IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Scheme: HTTP,
			Host: "cdn.example.net", Path: "/assets/icon.png", BytesUp: 240, BytesDown: 10240, Duration: 150 * time.Millisecond},
		{Time: t0.Add(2 * time.Minute), IMSI: subs.MustNew(9), IMEI: imei.MustNew(35733009, 3), Scheme: HTTPS,
			Host: "graph.social.example.com", BytesUp: 900, BytesDown: 3100, Duration: 410 * time.Millisecond},
		{Time: t0.Add(3 * time.Minute), IMSI: subs.MustNew(9), IMEI: imei.MustNew(35733009, 3), Scheme: HTTPS,
			Host: "api.weather.example.com", BytesUp: 399, BytesDown: 2714, Duration: 290 * time.Millisecond},
		// A truncated record: the proxy cut this connection mid-flight.
		{Time: t0.Add(4 * time.Minute), IMSI: subs.MustNew(9), IMEI: imei.MustNew(35733009, 3), Scheme: HTTPS,
			Host: "graph.social.example.com", BytesUp: 120, BytesDown: 0, Duration: 95 * time.Second, Drop: DropIdle},
	}
}

func recordsEqual(a, b Record) bool {
	return a.Time == b.Time && a.IMSI == b.IMSI && a.IMEI == b.IMEI &&
		a.Scheme == b.Scheme && a.Host == b.Host && a.Path == b.Path &&
		a.BytesUp == b.BytesUp && a.BytesDown == b.BytesDown && a.Duration == b.Duration &&
		a.Drop == b.Drop
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecords()[1]
	if r.Bytes() != 10480 {
		t.Fatalf("bytes = %d", r.Bytes())
	}
}

func TestValidate(t *testing.T) {
	good := sampleRecords()[0]
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Host = ""
	if bad.Validate() == nil {
		t.Fatal("empty host accepted")
	}
	bad = good
	bad.BytesUp = -1
	if bad.Validate() == nil {
		t.Fatal("negative bytes accepted")
	}
	bad = good
	bad.Duration = -time.Second
	if bad.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	bad = good
	bad.Path = "/x" // HTTPS with path
	if bad.Validate() == nil {
		t.Fatal("HTTPS path accepted")
	}
	bad = good
	bad.Drop = NumDropReasons
	if bad.Validate() == nil {
		t.Fatal("out-of-range drop reason accepted")
	}
}

// TestEncoderRejectsInvalid: Encode refuses a record that fails
// Validate, as the decoder would, and writes nothing of it, so the
// records encoded before it still decode in full.
func TestEncoderRejectsInvalid(t *testing.T) {
	httpsPath := sampleRecords()[0]
	httpsPath.Path = "/x"
	noHost := sampleRecords()[1]
	noHost.Host = ""
	for _, bad := range []struct {
		name string
		rec  Record
	}{{"HTTPS record with a path", httpsPath}, {"empty host", noHost}} {
		for _, n := range []int{0, len(sampleRecords())} {
			before := sampleRecords()[:n]
			var buf bytes.Buffer
			enc := NewEncoder(&buf)
			for _, r := range before {
				if err := enc.Encode(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Encode(bad.rec); err == nil {
				t.Errorf("%s after %d records: encoded", bad.name, n)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBinary(&buf)
			if err != nil || len(got) != n {
				t.Fatalf("%s after %d records: decoded %d records: %v", bad.name, n, len(got), err)
			}
			for i := range got {
				if !recordsEqual(got[i], before[i]) {
					t.Errorf("%s after %d records: record %d = %+v, want %+v", bad.name, n, i, got[i], before[i])
				}
			}
		}
	}
}

// TestDropReasonRoundTrip carries every drop reason through the binary
// codec and requires each to name itself apart from the others.
func TestDropReasonRoundTrip(t *testing.T) {
	names := map[string]bool{}
	for d := DropNone; d < NumDropReasons; d++ {
		r := sampleRecords()[0]
		r.Drop = d
		got := roundTrip(t, r)
		if got.Drop != d {
			t.Fatalf("round trip %v: got %v", d, got.Drop)
		}
		if names[d.String()] {
			t.Fatalf("drop reason name %q repeats", d)
		}
		names[d.String()] = true
	}
}

// roundTrip encodes r alone and decodes it back.
func roundTrip(t *testing.T, r Record) Record {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Record{r}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil || len(got) != 1 {
		t.Fatalf("decoded %d records: %v", len(got), err)
	}
	return got[0]
}

func TestTruncated(t *testing.T) {
	recs := sampleRecords()
	if recs[0].Truncated() {
		t.Fatal("clean record reported truncated")
	}
	last := recs[len(recs)-1]
	if !last.Truncated() || last.Drop != DropIdle {
		t.Fatalf("drop-tagged record = %+v", last)
	}
}

// TestBinaryV1StreamCompat: version-1 streams (no drop byte) must still
// decode, with every record DropNone.
func TestBinaryV1StreamCompat(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("WWPL\x01")
	buf.WriteByte(0x01) // opDef
	buf.WriteByte(9)    // host length
	buf.WriteString("a.example")
	buf.WriteByte(0x02)                             // opRec
	buf.Write([]byte{0x00})                         // delta 0
	buf.Write([]byte{0x01, 0x01, 0x01})             // imsi, imei, scheme https
	buf.Write([]byte{0x00, 0x00, 0x0A, 0x14, 0x1E}) // host 0, path len 0, up 10, down 20, dur 30
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("records = %d", len(got))
	}
	r := got[0]
	if r.Host != "a.example" || r.BytesUp != 10 || r.BytesDown != 20 || r.Drop != DropNone {
		t.Fatalf("record = %+v", r)
	}
}

func TestSchemeRoundTrip(t *testing.T) {
	for _, s := range []Scheme{HTTP, HTTPS} {
		r := sampleRecords()[0]
		r.Scheme = s
		if got := roundTrip(t, r); got.Scheme != s {
			t.Fatalf("round trip %v: got %v", s, got.Scheme)
		}
	}
	if HTTP.String() != "http" || HTTPS.String() != "https" {
		t.Fatalf("scheme names %q, %q", HTTP, HTTPS)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if !recordsEqual(got[i], recs[i]) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE!")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("WWPL\x09")); err == nil {
		t.Fatal("bad version accepted")
	}
	// Valid header, invalid opcode.
	if _, err := ReadBinary(strings.NewReader("WWPL\x01\xEE")); err == nil {
		t.Fatal("bad opcode accepted")
	}
	// Record referencing an undefined host id.
	var buf bytes.Buffer
	buf.WriteString("WWPL\x01")
	buf.WriteByte(0x02)                 // opRec
	buf.Write([]byte{0x00})             // delta 0
	buf.Write([]byte{0x01, 0x01, 0x00}) // imsi, imei, scheme http
	buf.Write([]byte{0x05})             // host id 5: undefined
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("undefined host id accepted")
	}
	// A v2 record whose drop byte is out of range.
	buf.Reset()
	buf.WriteString("WWPL\x02")
	buf.WriteByte(0x01) // opDef
	buf.WriteByte(1)
	buf.WriteString("a")
	buf.WriteByte(0x02)                                   // opRec
	buf.Write([]byte{0x00, 0x01, 0x01, 0x01, 0x00, 0x00}) // delta, imsi, imei, scheme, host, path len
	buf.Write([]byte{0x01, 0x01, 0x01})                   // up, down, dur
	buf.WriteByte(0x77)                                   // drop reason: out of range
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("out-of-range drop byte accepted")
	}
}

func TestBinaryTimeDeltasAcrossOrder(t *testing.T) {
	// Out-of-order times must survive (negative deltas).
	t0 := simtime.Instant(time.Date(2018, 3, 1, 12, 0, 0, 0, time.UTC).UnixNano())
	recs := []Record{
		{Time: t0, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Scheme: HTTPS, Host: "a.example", BytesUp: 1, BytesDown: 1, Duration: time.Millisecond},
		{Time: t0.Add(-time.Hour), IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Scheme: HTTPS, Host: "b.example", BytesUp: 2, BytesDown: 2, Duration: time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Time != recs[1].Time {
		t.Fatalf("time = %v", got[1].Time)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	t0 := simtime.Instant(time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	f := func(seed uint32, hostPick uint8, up, down uint32, durMs uint16, https bool, pathPick uint8) bool {
		hosts := []string{"a.example", "b.example.org", "xn--caf-dma.example", "very-long-subdomain.cdn.example.net"}
		paths := []string{"", "/", "/a/b/c?q=1", "/with,comma", "/with\"quote"}
		r := Record{
			Time:      t0.Add(time.Duration(seed) * time.Millisecond),
			IMSI:      subs.MustNew(uint64(seed)),
			IMEI:      imei.MustNew(35332011, seed%1000000),
			Host:      hosts[int(hostPick)%len(hosts)],
			BytesUp:   int64(up),
			BytesDown: int64(down),
			Duration:  time.Duration(durMs) * time.Millisecond,
		}
		if https {
			r.Scheme = HTTPS
		} else {
			r.Scheme = HTTP
			r.Path = paths[int(pathPick)%len(paths)]
		}
		var bb bytes.Buffer
		if err := WriteBinary(&bb, []Record{r}); err != nil {
			return false
		}
		gotBin, err := ReadBinary(&bb)
		return err == nil && len(gotBin) == 1 && recordsEqual(gotBin[0], r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSortByTimeStable requires SortByTime to keep equal-time records in
// their original order, element for element the order sort.SliceStable
// gives, on a log where every timestamp is shared by hundreds of records.
func TestSortByTimeStable(t *testing.T) {
	t0 := simtime.Instant(time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	var l Log
	for i := 0; i < 5000; i++ {
		l.Append(Record{
			Time:    t0.Add(time.Duration(i*7919%16) * time.Second),
			IMSI:    subs.MustNew(uint64(i % 37)),
			Scheme:  HTTPS,
			Host:    fmt.Sprintf("h%d.example.com", i%11),
			BytesUp: int64(i),
		})
	}
	want := slices.Clone(l.Records)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
	l.SortByTime()
	for i := range want {
		if l.Records[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, l.Records[i], want[i])
		}
	}
}

func TestLogHelpers(t *testing.T) {
	var l Log
	recs := sampleRecords()
	l.Append(recs[2])
	l.Append(recs[0])
	if l.Sorted() {
		t.Fatal("unsorted log reported sorted")
	}
	l.SortByTime()
	if !l.Sorted() || l.Len() != 2 {
		t.Fatal("sort failed")
	}
	by := l.ByUser()
	if len(by) != 2 {
		t.Fatalf("users = %d", len(by))
	}
}
