package stream

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"wearwild/internal/leakcheck"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"
)

// codecLogs builds time-ordered logs of the given size whose records all
// survive the codecs: valid identities, proxy records that pass
// Validate, whole-second MME times and UDR aggregates with bytes and
// transactions together.
func codecLogs(users, records int) *Logs {
	r := randx.New(1)
	week := simtime.Detail().Start.Week()
	l := &Logs{Proxy: &proxylog.Log{}, MME: &mme.Log{}, UDR: &udr.Log{}}
	for i := range records {
		u := r.IntN(users)
		imsi, dev := subs.MustNew(uint64(u)), imei.MustNew(35000001, uint32(u))
		switch n := r.IntN(20); {
		case n < 15:
			l.Proxy.Append(proxylog.Record{Time: at(i / 100), IMSI: imsi, IMEI: dev, Scheme: proxylog.HTTP,
				Host: fmt.Sprintf("h%d.example", n), Path: "/p", BytesUp: int64(n), BytesDown: int64(i), Duration: time.Second})
		case n < 19:
			l.MME.Append(mme.Record{Time: at(i / 100), IMSI: imsi, IMEI: dev, Sector: cells.SectorID(n)})
		default:
			l.UDR.Append(udr.Record{Week: week, IMSI: imsi, IMEI: dev, Bytes: int64(i + 1), Transactions: 1})
		}
	}
	return l
}

// encodeLogs returns the proxy binary, MME CSV and UDR CSV encodings of l.
func encodeLogs(t testing.TB, l *Logs) [3][]byte {
	t.Helper()
	var bufs [3]bytes.Buffer
	for i, err := range []error{
		proxylog.WriteBinary(&bufs[0], l.Proxy.Records),
		mme.WriteCSV(&bufs[1], l.MME.Records),
		udr.WriteCSV(&bufs[2], l.UDR.Records),
	} {
		if err != nil {
			t.Fatalf("encoding feed %d: %v", i, err)
		}
	}
	return [3][]byte{bufs[0].Bytes(), bufs[1].Bytes(), bufs[2].Bytes()}
}

func readersOf(enc [3][]byte) *Readers {
	return &Readers{ProxyBinary: bytes.NewReader(enc[0]), MMECSV: bytes.NewReader(enc[1]), UDRCSV: bytes.NewReader(enc[2])}
}

// collectSink keeps every record per feed and fails its failAt-th call
// (1-based; 0 never).
type collectSink struct {
	recs   Records
	n      int
	failAt int
}

func (s *collectSink) step() error {
	if s.n++; s.n == s.failAt {
		return errSink
	}
	return nil
}

func (s *collectSink) Proxy(r proxylog.Record) error {
	s.recs.Proxy = append(s.recs.Proxy, r)
	return s.step()
}

func (s *collectSink) MME(r mme.Record) error {
	s.recs.MME = append(s.recs.MME, r)
	return s.step()
}

func (s *collectSink) UDR(r udr.Record) error {
	s.recs.UDR = append(s.recs.UDR, r)
	return s.step()
}

func (s *collectSink) UserDone(subs.IMSI) error { panic("UserDone from a record-major source") }

// TestReadersFeedOrder streams feeds of many chunks each: every feed
// arrives whole and in file order, as its codec alone decodes it.
func TestReadersFeedOrder(t *testing.T) {
	l := codecLogs(500, 20*chunkRecords)
	sink := &collectSink{}
	if err := readersOf(encodeLogs(t, l)).Stream(sink); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.recs.Proxy, l.Proxy.Records) {
		t.Error("proxy feed differs from the encoded log")
	}
	if !reflect.DeepEqual(sink.recs.MME, l.MME.Records) {
		t.Error("MME feed differs from the encoded log")
	}
	if !reflect.DeepEqual(sink.recs.UDR, l.UDR.Records) {
		t.Error("UDR feed differs from the encoded log")
	}
}

// TestReadersSinkErrorStops: a failing sink call ends Stream with the
// sink's error, unwrapped, and no decoder outlives it, whether the
// decoders are still starting or wait on a full chunk pool.
func TestReadersSinkErrorStops(t *testing.T) {
	enc := encodeLogs(t, codecLogs(500, 20*chunkRecords))
	for _, failAt := range []int{1, chunkRecords, 3*chunkRecords + 1, 12 * chunkRecords} {
		check := leakcheck.Since(t)
		sink := &collectSink{failAt: failAt}
		if err := readersOf(enc).Stream(sink); err != errSink {
			t.Errorf("fail at call %d: got %v, want errSink", failAt, err)
		}
		if sink.n != failAt {
			t.Errorf("fail at call %d: the sink got %d calls", failAt, sink.n)
		}
		check()
	}
}

// TestReadersDamagedFeedStops damages one feed in its middle while the
// other two decode whole: Stream returns the error that feed's codec
// gives alone, and no decoder outlives it.
func TestReadersDamagedFeedStops(t *testing.T) {
	enc := encodeLogs(t, codecLogs(500, 20*chunkRecords))
	discard := func(codec func(io.Reader) error) func([]byte) error {
		return func(b []byte) error { return codec(bytes.NewReader(b)) }
	}
	alone := [3]func([]byte) error{
		discard(func(r io.Reader) error { return proxylog.StreamBinary(r, func(proxylog.Record) error { return nil }) }),
		discard(func(r io.Reader) error { return mme.StreamCSV(r, func(mme.Record) error { return nil }) }),
		discard(func(r io.Reader) error { return udr.StreamCSV(r, func(udr.Record) error { return nil }) }),
	}
	for feed := range enc {
		// The first cut past the middle that the codec rejects: a cut at
		// a record boundary is a clean end.
		var damaged []byte
		var want error
		for cut := len(enc[feed]) / 2; want == nil; cut++ {
			damaged = enc[feed][:cut]
			want = alone[feed](damaged)
		}
		in := enc
		in[feed] = damaged
		check := leakcheck.Since(t)
		err := readersOf(in).Stream(&collectSink{})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("feed %d cut to %d bytes: got %v, want %v", feed, len(damaged), err, want)
		}
		check()
	}
}

// countSink counts the records it is handed.
type countSink struct{ records int }

func (s *countSink) Proxy(proxylog.Record) error { s.records++; return nil }
func (s *countSink) MME(mme.Record) error        { s.records++; return nil }
func (s *countSink) UDR(udr.Record) error        { s.records++; return nil }
func (s *countSink) UserDone(subs.IMSI) error    { return nil }

// BenchmarkReadersStream times the saved-log source on its own: gunzip
// and decode of the three feeds of 4,000 subscribers and 300,000 records
// into a counting sink. It reports ns/record.
func BenchmarkReadersStream(b *testing.B) {
	const records = 300_000
	var gz [3][]byte
	for i, raw := range encodeLogs(b, codecLogs(4000, records)) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
		gz[i] = buf.Bytes()
	}
	sink := &countSink{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var zr [3]io.Reader
		for i := range gz {
			r, err := gzip.NewReader(bytes.NewReader(gz[i]))
			if err != nil {
				b.Fatal(err)
			}
			zr[i] = r
		}
		src := &Readers{ProxyBinary: zr[0], MMECSV: zr[1], UDRCSV: zr[2]}
		if err := src.Stream(sink); err != nil {
			b.Fatal(err)
		}
	}
	if sink.records != b.N*records {
		b.Fatalf("streamed %d records, want %d", sink.records, b.N*records)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
