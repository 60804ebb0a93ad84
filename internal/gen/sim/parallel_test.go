package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"

	"wearwild/internal/leakcheck"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// datasetHash fingerprints a dataset through the on-disk codecs, so two
// equal hashes mean byte-identical encoded logs — the strongest form of
// the §7 worker-invariance contract.
func datasetHash(t testing.TB, ds *Dataset) string {
	t.Helper()
	h := sha256.New()
	if err := mme.WriteCSV(h, ds.MME.Records); err != nil {
		t.Fatal(err)
	}
	if err := proxylog.WriteBinary(h, ds.Proxy.Records); err != nil {
		t.Fatal(err)
	}
	if err := udr.WriteCSV(h, ds.UDR.Records); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// logSink collects a streamed dataset back into resident logs.
type logSink struct {
	mme   mme.Log
	proxy proxylog.Log
	udr   udr.Log
	users int
}

func (s *logSink) Proxy(r proxylog.Record) error { s.proxy.Append(r); return nil }
func (s *logSink) MME(r mme.Record) error        { s.mme.Append(r); return nil }
func (s *logSink) UDR(r udr.Record) error        { s.udr.Append(r); return nil }
func (s *logSink) UserDone(subs.IMSI) error      { s.users++; return nil }

// TestGenerateParallelEquivalence pins the generator sweep at the
// encoding layer: the logs Generate emits must be byte-identical for
// any worker count, and the stream path must carry the same records.
func TestGenerateParallelEquivalence(t *testing.T) {
	hash := func(workers int) string {
		cfg := tinyConfig(42)
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return datasetHash(t, ds)
	}
	ref := hash(1)
	for _, w := range []int{2, 8} {
		if got := hash(w); got != ref {
			t.Errorf("Workers=%d: encoded dataset hash %s, want %s (Workers=1)", w, got, ref)
		}
	}

	// Cross-check the stream path: per-user bundles, re-sorted by the
	// same canonical global sorts, must reproduce the batch dataset
	// byte for byte — and the emitted byte stream itself must not
	// depend on the stream's worker count.
	streamed := func(workers int) *logSink {
		cfg := tinyConfig(42)
		cfg.Workers = workers
		src, err := NewStreamSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := &logSink{}
		if err := src.Stream(sink); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	first := streamed(1)
	for _, w := range []int{2, 8} {
		s := streamed(w)
		if s.users != first.users {
			t.Fatalf("stream Workers=%d emitted %d users, want %d", w, s.users, first.users)
		}
		for i := range first.proxy.Records {
			if s.proxy.Records[i] != first.proxy.Records[i] {
				t.Fatalf("stream Workers=%d: proxy record %d differs from Workers=1 emission order", w, i)
			}
		}
		for i := range first.mme.Records {
			if s.mme.Records[i] != first.mme.Records[i] {
				t.Fatalf("stream Workers=%d: MME record %d differs from Workers=1 emission order", w, i)
			}
		}
		for i := range first.udr.Records {
			if s.udr.Records[i] != first.udr.Records[i] {
				t.Fatalf("stream Workers=%d: UDR record %d differs from Workers=1 emission order", w, i)
			}
		}
	}
	// The global sorts are stable and the stream is user-major in the
	// same ascending-user tie order Generate concatenates in, so sorting
	// the collected stream must land exactly on the batch dataset.
	ds := &Dataset{MME: first.mme, Proxy: first.proxy, UDR: first.udr}
	ds.MME.SortByTime()
	ds.Proxy.SortByTime()
	ds.UDR.Sort()
	if got := datasetHash(t, ds); got != ref {
		t.Errorf("stream-collected dataset hash %s, want batch hash %s", got, ref)
	}
}

// lagSink is a stream.UserSink that runs each subscriber's gather on its
// own goroutine, and only once lag later subscribers have been handed
// over: by then the sweep has refilled the subscriber's ring slot, and it
// is filling other slots while the gather runs.
type lagSink struct {
	gathers chan func(*stream.Records)
	done    chan stream.Records
}

func newLagSink(lag int) *lagSink {
	s := &lagSink{gathers: make(chan func(*stream.Records)), done: make(chan stream.Records)}
	go func() {
		var held []func(*stream.Records)
		var got stream.Records
		for g := range s.gathers {
			held = append(held, g)
			if len(held) > lag {
				held[0](&got)
				held = held[1:]
			}
		}
		for _, g := range held {
			g(&got)
		}
		s.done <- got
	}()
	return s
}

func (s *lagSink) User(_ subs.IMSI, gather func(*stream.Records)) error {
	s.gathers <- gather
	return nil
}

// The per-record calls are never made: the source sees a UserSink.
func (s *lagSink) Proxy(proxylog.Record) error { panic("per-record call on a UserSink") }
func (s *lagSink) MME(mme.Record) error        { panic("per-record call on a UserSink") }
func (s *lagSink) UDR(udr.Record) error        { panic("per-record call on a UserSink") }
func (s *lagSink) UserDone(subs.IMSI) error    { panic("per-record call on a UserSink") }

// TestStreamLateGathers pins the lifetime of StreamSource's handover: a
// gather run after the sweep has reused its subscriber's ring slot, on
// another goroutine while the sweep runs, still yields that subscriber's
// records. Under -race it also catches a gather that reads the slot the
// sweep is refilling.
func TestStreamLateGathers(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		cfg := tinyConfig(42)
		cfg.Workers = w
		src, err := NewStreamSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := &logSink{}
		if err := src.Stream(want); err != nil {
			t.Fatal(err)
		}
		sink := newLagSink(8 * w) // twice the sweep's ring of 4 slots per worker
		err = src.Stream(sink)
		close(sink.gathers)
		got := <-sink.done
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Proxy, want.proxy.Records) || !slices.Equal(got.MME, want.mme.Records) ||
			!slices.Equal(got.UDR, want.udr.Records) {
			t.Errorf("Workers=%d: late gathers yield %d/%d/%d proxy/MME/UDR records unlike the per-record stream's %d/%d/%d",
				w, len(got.Proxy), len(got.MME), len(got.UDR),
				len(want.proxy.Records), len(want.mme.Records), len(want.udr.Records))
		}
	}
}

var errSinkFull = errors.New("sink full")

// failSink fails on its k-th record and counts every sink call made
// after that failure.
type failSink struct {
	k, recs, after int
}

func (s *failSink) record() error {
	if s.recs >= s.k {
		s.after++
		return nil
	}
	s.recs++
	if s.recs == s.k {
		return fmt.Errorf("record %d: %w", s.k, errSinkFull)
	}
	return nil
}

func (s *failSink) Proxy(proxylog.Record) error { return s.record() }
func (s *failSink) MME(mme.Record) error        { return s.record() }
func (s *failSink) UDR(udr.Record) error        { return s.record() }
func (s *failSink) UserDone(subs.IMSI) error {
	if s.recs >= s.k {
		s.after++
	}
	return nil
}

// TestStreamSinkErrorStopsSweep pins the sweep's early exit: the first
// sink error is returned, nothing reaches the sink after it, and every
// generator goroutine exits.
func TestStreamSinkErrorStopsSweep(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, k := range []int{1, 2000, 40000} {
			cfg := tinyConfig(42)
			cfg.Workers = w
			src, err := NewStreamSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := leakcheck.Since(t)
			sink := &failSink{k: k}
			err = src.Stream(sink)
			if !errors.Is(err, errSinkFull) {
				t.Fatalf("Workers=%d k=%d: Stream returned %v, want the sink's error", w, k, err)
			}
			if sink.recs != k || sink.after != 0 {
				t.Errorf("Workers=%d k=%d: %d records before the failure, %d sink calls after it",
					w, k, sink.recs, sink.after)
			}
			check()
		}
	}
}

// BenchmarkGenerateParallel measures Generate's sweep per worker count;
// allocation figures are the §9 slab-discipline surface.
func BenchmarkGenerateParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tinyConfig(42)
				cfg.Workers = w
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
