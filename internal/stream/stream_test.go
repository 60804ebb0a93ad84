package stream

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/simtime"
)

// event is one sink callback, rendered for order comparisons.
type event struct {
	kind string // "proxy", "mme", "udr", "done"
	imsi subs.IMSI
	tag  string // distinguishes records of one user
}

// traceSink records the exact callback sequence, failing a configured
// callback to exercise abort paths.
type traceSink struct {
	events []event
	failAt int // fail the Nth callback (1-based); 0 disables
	n      int
}

var errSink = errors.New("sink failure")

func (s *traceSink) step(e event) error {
	s.n++
	if s.failAt != 0 && s.n == s.failAt {
		return errSink
	}
	s.events = append(s.events, e)
	return nil
}

func (s *traceSink) Proxy(rec proxylog.Record) error {
	return s.step(event{"proxy", rec.IMSI, rec.Host})
}
func (s *traceSink) MME(rec mme.Record) error {
	return s.step(event{"mme", rec.IMSI, fmt.Sprint(rec.Sector)})
}
func (s *traceSink) UDR(rec udr.Record) error {
	return s.step(event{"udr", rec.IMSI, fmt.Sprint(rec.Bytes)})
}
func (s *traceSink) UserDone(imsi subs.IMSI) error {
	return s.step(event{"done", imsi, ""})
}

func at(h int) simtime.Instant {
	return simtime.Detail().Start.Time().Add(time.Duration(h) * time.Hour)
}

// testLogs builds small interleaved logs for two subscribers: global log
// order mixes the users, so a user-major replay must regroup them.
func testLogs() *Logs {
	dev := func(u subs.IMSI) imei.IMEI { return imei.MustNew(35000001, uint32(1000+u)) }
	p := &proxylog.Log{Records: []proxylog.Record{
		{Time: at(1), IMSI: 7, IMEI: dev(7), Host: "a", BytesDown: 1},
		{Time: at(2), IMSI: 3, IMEI: dev(3), Host: "b", BytesDown: 1},
		{Time: at(3), IMSI: 7, IMEI: dev(7), Host: "c", BytesDown: 1},
	}}
	m := &mme.Log{Records: []mme.Record{
		{Time: at(1), IMSI: 3, IMEI: dev(3), Sector: 11},
		{Time: at(2), IMSI: 7, IMEI: dev(7), Sector: 12},
	}}
	u := &udr.Log{Records: []udr.Record{
		{Week: simtime.Detail().Start.Week(), IMSI: 3, IMEI: dev(3), Bytes: 5, Transactions: 1},
	}}
	return &Logs{Proxy: p, MME: m, UDR: u}
}

// TestLogsUserMajorOrder pins the Logs contract the engine and the
// cross-source equivalence suite rely on: subscribers replay in ascending
// IMSI order, each as proxy→MME→UDR in log order, closed by UserDone.
func TestLogsUserMajorOrder(t *testing.T) {
	sink := &traceSink{}
	if err := testLogs().Stream(sink); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{"proxy", 3, "b"},
		{"mme", 3, "11"},
		{"udr", 3, "5"},
		{"done", 3, ""},
		{"proxy", 7, "a"},
		{"proxy", 7, "c"},
		{"mme", 7, "12"},
		{"done", 7, ""},
	}
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("replay order:\n got %v\nwant %v", sink.events, want)
	}
}

// TestLogsNilFeeds streams with absent logs: only the present feed plays.
func TestLogsNilFeeds(t *testing.T) {
	l := testLogs()
	l.MME, l.UDR = nil, nil
	sink := &traceSink{}
	if err := l.Stream(sink); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.events {
		if e.kind == "mme" || e.kind == "udr" {
			t.Fatalf("absent feed emitted %v", e)
		}
	}
	if len(sink.events) != 5 { // 3 proxy + 2 done
		t.Fatalf("got %d events, want 5: %v", len(sink.events), sink.events)
	}
}

// TestLogsSinkErrorAborts pins the abort contract: the first sink error
// stops the stream and surfaces unwrapped.
func TestLogsSinkErrorAborts(t *testing.T) {
	sink := &traceSink{failAt: 3}
	if err := testLogs().Stream(sink); err != errSink {
		t.Fatalf("got %v, want errSink", err)
	}
	if len(sink.events) != 2 {
		t.Fatalf("stream continued past the failing callback: %v", sink.events)
	}
}

// userSink is a UserSink that keeps every handover and runs the gathers
// only when asked, failing a configured User call to exercise aborts.
type userSink struct {
	traceSink
	imsis   []subs.IMSI
	gathers []func(*Records)
}

func (s *userSink) User(imsi subs.IMSI, gather func(dst *Records)) error {
	s.n++
	if s.failAt != 0 && s.n == s.failAt {
		return errSink
	}
	s.imsis = append(s.imsis, imsi)
	s.gathers = append(s.gathers, gather)
	return nil
}

// replay runs the kept gathers in handover order and renders what they
// gather as the per-record calls and UserDone they stand for.
func (s *userSink) replay() []event {
	var out []event
	for i, gather := range s.gathers {
		var r Records
		gather(&r)
		for _, rec := range r.Proxy {
			out = append(out, event{"proxy", rec.IMSI, rec.Host})
		}
		for _, rec := range r.MME {
			out = append(out, event{"mme", rec.IMSI, fmt.Sprint(rec.Sector)})
		}
		for _, rec := range r.UDR {
			out = append(out, event{"udr", rec.IMSI, fmt.Sprint(rec.Bytes)})
		}
		out = append(out, event{"done", s.imsis[i], ""})
	}
	return out
}

// bigLogs builds interleaved logs for many subscribers, each with a
// different number of records per feed (some none), in a shuffled
// subscriber order.
func bigLogs() *Logs {
	const users = 40
	l := &Logs{Proxy: &proxylog.Log{}, MME: &mme.Log{}, UDR: &udr.Log{}}
	for i := range 200 {
		u := subs.IMSI(1 + i*17%users)
		l.Proxy.Append(proxylog.Record{Time: at(i), IMSI: u, Host: fmt.Sprintf("h%d", i), BytesDown: 1})
		if i%3 == 0 {
			l.MME.Append(mme.Record{Time: at(i), IMSI: u + 1, Sector: cells.SectorID(i)})
		}
		if i%7 == 0 {
			l.UDR.Append(udr.Record{IMSI: u + 2, Bytes: int64(i), Transactions: 1})
		}
	}
	return l
}

// TestLogsUserSinkMatchesPerRecord pins the two ways Logs hands a
// subscriber over: the gathers a UserSink receives, run after the stream
// has returned, yield the same records in the same order, subscriber by
// subscriber, as the per-record calls a plain Sink receives.
func TestLogsUserSinkMatchesPerRecord(t *testing.T) {
	for name, logs := range map[string]*Logs{"two users": testLogs(), "forty users": bigLogs()} {
		perRecord := &traceSink{}
		if err := logs.Stream(perRecord); err != nil {
			t.Fatal(err)
		}
		users := &userSink{}
		if err := logs.Stream(users); err != nil {
			t.Fatal(err)
		}
		if len(users.events) != 0 {
			t.Fatalf("%s: a UserSink got per-record calls: %v", name, users.events)
		}
		if got := users.replay(); !reflect.DeepEqual(got, perRecord.events) {
			t.Errorf("%s: gathered records differ from the per-record calls:\n got %v\nwant %v", name, got, perRecord.events)
		}
	}
}

// TestLogsUserErrorAborts: the first User error stops the stream and
// surfaces unwrapped, and no later subscriber is handed over.
func TestLogsUserErrorAborts(t *testing.T) {
	sink := &userSink{traceSink: traceSink{failAt: 3}}
	if err := bigLogs().Stream(sink); err != errSink {
		t.Fatalf("got %v, want errSink", err)
	}
	if len(sink.gathers) != 2 {
		t.Fatalf("stream continued past the failing User: %d subscribers handed over", len(sink.gathers))
	}
}

// TestReadersRoundTrip serialises all three logs and streams them back
// through the codec Stream functions: every record survives byte-exact,
// each feed in file order, and no UserDone is ever emitted (record-major
// contract). The feeds decode concurrently, so only each feed's own
// order is pinned.
func TestReadersRoundTrip(t *testing.T) {
	logs := testLogs()
	var pbuf, mbuf, ubuf bytes.Buffer
	if err := proxylog.WriteBinary(&pbuf, logs.Proxy.Records); err != nil {
		t.Fatal(err)
	}
	if err := mme.WriteCSV(&mbuf, logs.MME.Records); err != nil {
		t.Fatal(err)
	}
	if err := udr.WriteCSV(&ubuf, logs.UDR.Records); err != nil {
		t.Fatal(err)
	}
	sink := &traceSink{}
	r := &Readers{ProxyBinary: &pbuf, MMECSV: &mbuf, UDRCSV: &ubuf}
	if err := r.Stream(sink); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{"proxy", 7, "a"},
		{"proxy", 3, "b"},
		{"proxy", 7, "c"},
		{"mme", 3, "11"},
		{"mme", 7, "12"},
		{"udr", 3, "5"},
	}
	got := slices.Clone(sink.events)
	kinds := map[string]int{"proxy": 0, "mme": 1, "udr": 2, "done": 3}
	slices.SortStableFunc(got, func(a, b event) int { return kinds[a.kind] - kinds[b.kind] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded stream, grouped by feed:\n got %v\nwant %v", got, want)
	}
}

// TestTailDrains pins the live-tail adapter: records fed before Close
// drain in order, Stream returns cleanly after Close, and Close is
// idempotent.
func TestTailDrains(t *testing.T) {
	tail := NewTail(8)
	for i := 0; i < 3; i++ {
		tail.Feed(proxylog.Record{Time: at(i), IMSI: 9, Host: fmt.Sprintf("h%d", i)})
	}
	tail.Close()
	tail.Close() // idempotent
	sink := &traceSink{}
	if err := tail.Stream(sink); err != nil {
		t.Fatal(err)
	}
	want := []event{{"proxy", 9, "h0"}, {"proxy", 9, "h1"}, {"proxy", 9, "h2"}}
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("tail replay:\n got %v\nwant %v", sink.events, want)
	}
}

// TestTailSinkErrorAborts: a failing consumer stops the drain with the
// sink's error even when more records are buffered.
func TestTailSinkErrorAborts(t *testing.T) {
	tail := NewTail(4)
	tail.Feed(proxylog.Record{Time: at(0), IMSI: 9, Host: "x"})
	tail.Feed(proxylog.Record{Time: at(1), IMSI: 9, Host: "y"})
	tail.Close()
	sink := &traceSink{failAt: 1}
	if err := tail.Stream(sink); err != errSink {
		t.Fatalf("got %v, want errSink", err)
	}
}

// TestTailConcurrentFeed runs producer and consumer concurrently through
// a 1-slot buffer: backpressure must not deadlock, and order holds.
func TestTailConcurrentFeed(t *testing.T) {
	tail := NewTail(1)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			tail.Feed(proxylog.Record{Time: at(i), IMSI: subs.IMSI(i % 5), Host: fmt.Sprintf("h%d", i)})
		}
		tail.Close()
	}()
	sink := &traceSink{}
	if err := tail.Stream(sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != n {
		t.Fatalf("got %d events, want %d", len(sink.events), n)
	}
	for i, e := range sink.events {
		if e.tag != fmt.Sprintf("h%d", i) {
			t.Fatalf("event %d out of order: %v", i, e)
		}
	}
}
