package stream

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
)

// randomLogs builds interleaved logs over a pool of subscribers whose
// IMSIs lie in [base, base+4·users), wrapping past MaxUint64. Each feed
// draws from the shared pool and from a pool of its own, so some
// subscribers appear in one feed only. Every record carries its
// position, so a reordering shows.
func randomLogs(r *randx.Rand, users, records int, base subs.IMSI, extra ...subs.IMSI) *Logs {
	pool := func() []subs.IMSI {
		p := slices.Clone(extra)
		for len(p) < users {
			p = append(p, base+subs.IMSI(r.Uint64()%uint64(4*users)))
		}
		return p
	}
	shared, own := pool(), [3][]subs.IMSI{pool(), pool(), pool()}
	pick := func(feed int) subs.IMSI {
		if r.Bool(0.8) {
			return shared[r.IntN(len(shared))]
		}
		return own[feed][r.IntN(len(own[feed]))]
	}
	l := &Logs{Proxy: &proxylog.Log{}, MME: &mme.Log{}, UDR: &udr.Log{}}
	for i := range records {
		switch r.IntN(3) {
		case 0:
			l.Proxy.Append(proxylog.Record{Time: at(i), IMSI: pick(0), Host: fmt.Sprint(i)})
		case 1:
			l.MME.Append(mme.Record{Time: at(i), IMSI: pick(1), Sector: cells.SectorID(i)})
		default:
			l.UDR.Append(udr.Record{IMSI: pick(2), Bytes: int64(i)})
		}
	}
	return l
}

// referenceUsers is the naive form of what Logs hands over: the union of
// the feeds' IMSIs in ascending order, and for each the records that
// name it, filtered out of each feed in log order.
func referenceUsers(l *Logs) ([]subs.IMSI, []Records) {
	var imsis []subs.IMSI
	if l.Proxy != nil {
		for _, rec := range l.Proxy.Records {
			imsis = append(imsis, rec.IMSI)
		}
	}
	if l.MME != nil {
		for _, rec := range l.MME.Records {
			imsis = append(imsis, rec.IMSI)
		}
	}
	if l.UDR != nil {
		for _, rec := range l.UDR.Records {
			imsis = append(imsis, rec.IMSI)
		}
	}
	slices.Sort(imsis)
	imsis = slices.Compact(imsis)
	recs := make([]Records, len(imsis))
	for k, imsi := range imsis {
		if l.Proxy != nil {
			for _, rec := range l.Proxy.Records {
				if rec.IMSI == imsi {
					recs[k].Proxy = append(recs[k].Proxy, rec)
				}
			}
		}
		if l.MME != nil {
			for _, rec := range l.MME.Records {
				if rec.IMSI == imsi {
					recs[k].MME = append(recs[k].MME, rec)
				}
			}
		}
		if l.UDR != nil {
			for _, rec := range l.UDR.Records {
				if rec.IMSI == imsi {
					recs[k].UDR = append(recs[k].UDR, rec)
				}
			}
		}
	}
	return imsis, recs
}

// TestLogsIndexMatchesReference holds the flat per-feed index to a naive
// per-subscriber filter: over random interleaved logs, with nil and empty
// feeds, subscribers in one feed only, and IMSIs 0 and MaxUint64, Logs
// hands over every subscriber once, in ascending IMSI order, and each
// gather — run after the stream has returned, on goroutines other than
// the one that streamed — yields that subscriber's records in log order.
// A second gather into the same Records appends them again. The trials
// cover both ways a feed gets its slots: an IMSI-offset table when the
// IMSIs span fewer values than the feed has records (pools next to 0 and
// to MaxUint64), and a map when they do not (0 and MaxUint64 together).
func TestLogsIndexMatchesReference(t *testing.T) {
	r := randx.New(26)
	var tables, maps int
	for trial := range 36 {
		users, records := 1+trial*6, trial*trial*6
		var l *Logs
		switch trial % 3 {
		case 0:
			l = randomLogs(r, users, records, subs.IMSI(r.Uint64()), 0, math.MaxUint64)
		case 1:
			l = randomLogs(r, users, records, 0, 0)
		default:
			l = randomLogs(r, users, records, math.MaxUint64-subs.IMSI(4*users-1), math.MaxUint64)
		}
		if n := len(l.MME.Records); n > 0 {
			lo, hi := l.MME.Records[0].IMSI, l.MME.Records[0].IMSI
			for _, rec := range l.MME.Records {
				lo, hi = min(lo, rec.IMSI), max(hi, rec.IMSI)
			}
			if uint64(hi-lo) < uint64(n) {
				tables++
			} else {
				maps++
			}
		}
		switch trial % 5 {
		case 1:
			l.Proxy = nil
		case 2:
			l.MME, l.UDR = nil, nil
		case 3:
			l.Proxy.Records = nil
		case 4:
			l.Proxy, l.MME, l.UDR = nil, &mme.Log{}, nil
		}
		wantIMSIs, want := referenceUsers(l)

		sink := &userSink{}
		if err := l.Stream(sink); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sink.imsis, wantIMSIs) {
			t.Fatalf("trial %d: handed over %v, want %v", trial, sink.imsis, wantIMSIs)
		}
		got := make([]Records, len(sink.gathers))
		const goroutines = 4
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < len(sink.gathers); k += goroutines {
					sink.gathers[k](&got[k])
				}
			}()
		}
		wg.Wait()
		for k := range got {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("trial %d: IMSI %d gathered\n %+v\nwant\n %+v", trial, wantIMSIs[k], got[k], want[k])
			}
		}
		for k := range got {
			sink.gathers[k](&got[k])
			twice := Records{
				Proxy: slices.Concat(want[k].Proxy, want[k].Proxy),
				MME:   slices.Concat(want[k].MME, want[k].MME),
				UDR:   slices.Concat(want[k].UDR, want[k].UDR),
			}
			if !reflect.DeepEqual(got[k], twice) {
				t.Fatalf("trial %d: IMSI %d: a second gather did not append the records again", trial, wantIMSIs[k])
			}
		}
	}
	if tables == 0 || maps == 0 {
		t.Fatalf("MME feeds indexed by table %d times and by map %d times; want both", tables, maps)
	}
}

// gatherAll is a UserSink that runs every gather at once into one reused
// Records, as a worker that takes whole subscribers does, and counts the
// records.
type gatherAll struct {
	scratch Records
	records int
}

func (g *gatherAll) Proxy(proxylog.Record) error { panic("per-record call on a UserSink") }
func (g *gatherAll) MME(mme.Record) error        { panic("per-record call on a UserSink") }
func (g *gatherAll) UDR(udr.Record) error        { panic("per-record call on a UserSink") }
func (g *gatherAll) UserDone(subs.IMSI) error    { panic("per-record call on a UserSink") }

func (g *gatherAll) User(_ subs.IMSI, gather func(dst *Records)) error {
	g.scratch.Reset()
	gather(&g.scratch)
	g.records += len(g.scratch.Proxy) + len(g.scratch.MME) + len(g.scratch.UDR)
	return nil
}

// BenchmarkLogsStream times the resident source on its own: the three
// feeds' index builds, the merged handover and every gather, over
// synthetic time-ordered logs of 4,000 subscribers and 300,000 records.
// It reports ns/record.
func BenchmarkLogsStream(b *testing.B) {
	const users, records = 4000, 300_000
	r := randx.New(1)
	l := &Logs{Proxy: &proxylog.Log{}, MME: &mme.Log{}, UDR: &udr.Log{}}
	for i := range records {
		imsi := subs.MustNew(uint64(r.IntN(users)))
		switch n := r.IntN(20); {
		case n < 15:
			l.Proxy.Append(proxylog.Record{Time: at(i / 100), IMSI: imsi, Host: "h"})
		case n < 19:
			l.MME.Append(mme.Record{Time: at(i / 100), IMSI: imsi, Sector: cells.SectorID(n)})
		default:
			l.UDR.Append(udr.Record{IMSI: imsi, Bytes: int64(i)})
		}
	}
	sink := &gatherAll{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := l.Stream(sink); err != nil {
			b.Fatal(err)
		}
	}
	if sink.records != b.N*records {
		b.Fatalf("gathered %d records, want %d", sink.records, b.N*records)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
