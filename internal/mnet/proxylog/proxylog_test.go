package proxylog

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

func sampleRecords() []Record {
	t0 := time.Date(2018, 3, 1, 7, 30, 0, 0, time.UTC)
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
	return a.Time.Equal(b.Time) && a.IMSI == b.IMSI && a.IMEI == b.IMEI &&
		a.Scheme == b.Scheme && a.Host == b.Host && a.Path == b.Path &&
		a.BytesUp == b.BytesUp && a.BytesDown == b.BytesDown && a.Duration == b.Duration &&
		a.Drop == b.Drop
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecords()[1]
	if r.Bytes() != 10480 {
		t.Fatalf("bytes = %d", r.Bytes())
	}
	if got := r.URL(); got != "http://cdn.example.net/assets/icon.png" {
		t.Fatalf("url = %s", got)
	}
	if got := sampleRecords()[0].URL(); got != "https://api.weather.example.com" {
		t.Fatalf("https url = %s", got)
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

func TestDropReasonRoundTrip(t *testing.T) {
	for d := DropNone; d < NumDropReasons; d++ {
		got, err := ParseDropReason(d.String())
		if err != nil || got != d {
			t.Fatalf("round trip %v: %v", d, err)
		}
	}
	// The CSV form leaves the column blank on clean records.
	if got, err := ParseDropReason(""); err != nil || got != DropNone {
		t.Fatalf("empty drop reason: %v", err)
	}
	if _, err := ParseDropReason("melted"); err == nil {
		t.Fatal("unknown drop reason accepted")
	}
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
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v", s)
		}
	}
	if _, err := ParseScheme("gopher"); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
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
	t0 := time.Date(2018, 3, 1, 12, 0, 0, 0, time.UTC)
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
	if !got[1].Time.Equal(recs[1].Time) {
		t.Fatalf("time = %v", got[1].Time)
	}
}

func TestBinarySmallerThanCSV(t *testing.T) {
	// Duplicate hosts across many records: interning must pay off.
	base := sampleRecords()
	var recs []Record
	for i := 0; i < 500; i++ {
		r := base[i%len(base)]
		r.Time = r.Time.Add(time.Duration(i) * time.Second)
		recs = append(recs, r)
	}
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, recs); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*2 > csvBuf.Len() {
		t.Fatalf("binary %d bytes not appreciably smaller than CSV %d bytes", binBuf.Len(), csvBuf.Len())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	t0 := time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)
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
		var cb, bb bytes.Buffer
		if err := WriteCSV(&cb, []Record{r}); err != nil {
			return false
		}
		gotCSV, err := ReadCSV(&cb)
		if err != nil || len(gotCSV) != 1 || !recordsEqual(gotCSV[0], r) {
			return false
		}
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

func TestFileRoundTripAllFormats(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	for _, name := range []string{"p.csv", "p.csv.gz", "p.bin", "p.bin.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(recs) || !recordsEqual(got[0], recs[0]) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	if err := WriteFile(filepath.Join(dir, "p.weird"), recs); err == nil {
		t.Fatal("unknown extension accepted for write")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSortByTimeStable requires SortByTime to keep equal-time records in
// their original order, element for element the order sort.SliceStable
// gives, on a log where every timestamp is shared by hundreds of records.
func TestSortByTimeStable(t *testing.T) {
	t0 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
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
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
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
	wantBytes := recs[2].Bytes() + recs[0].Bytes()
	if l.TotalBytes() != wantBytes {
		t.Fatalf("total bytes = %d, want %d", l.TotalBytes(), wantBytes)
	}
}
