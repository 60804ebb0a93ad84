package core

import (
	"encoding/json"
	"errors"
	"testing"

	"wearwild/internal/gen/sim"
	"wearwild/internal/leakcheck"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// The kinds of a recorded stream's events.
const (
	opProxy uint8 = iota
	opMME
	opUDR
	opUserDone
	opUser
)

// event is one recorded stream event; user is the subscriber it belongs
// to, and kind selects the payload (opProxy, opMME, opUDR, opUserDone, or
// opUser with the subscriber's whole records in recs).
type event struct {
	kind  uint8
	user  subs.IMSI
	proxy proxylog.Record
	mme   mme.Record
	udr   udr.Record
	recs  stream.Records
}

// recorder is a stream.Sink that keeps every event, and a stream.Source
// that replays them.
type recorder []event

func (r *recorder) Proxy(rec proxylog.Record) error {
	*r = append(*r, event{kind: opProxy, user: rec.IMSI, proxy: rec})
	return nil
}

func (r *recorder) MME(rec mme.Record) error {
	*r = append(*r, event{kind: opMME, user: rec.IMSI, mme: rec})
	return nil
}

func (r *recorder) UDR(rec udr.Record) error {
	*r = append(*r, event{kind: opUDR, user: rec.IMSI, udr: rec})
	return nil
}

func (r *recorder) UserDone(user subs.IMSI) error {
	*r = append(*r, event{kind: opUserDone, user: user})
	return nil
}

func (r *recorder) Stream(sink stream.Sink) error {
	users := stream.PerUser(sink)
	for _, ev := range *r {
		var err error
		switch ev.kind {
		case opProxy:
			err = sink.Proxy(ev.proxy)
		case opMME:
			err = sink.MME(ev.mme)
		case opUDR:
			err = sink.UDR(ev.udr)
		case opUserDone:
			err = sink.UserDone(ev.user)
		case opUser:
			err = users.User(ev.user, func(dst *stream.Records) {
				dst.Proxy = append(dst.Proxy, ev.recs.Proxy...)
				dst.MME = append(dst.MME, ev.recs.MME...)
				dst.UDR = append(dst.UDR, ev.recs.UDR...)
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// wholeUsers returns r with every third subscriber's run of records and
// UserDone folded into one opUser event, so per-record and whole-user
// events mix in the stream.
func wholeUsers(r recorder) recorder {
	var out recorder
	k := 0
	for start := 0; start < len(r); {
		end := start
		for r[end].kind != opUserDone {
			end++
		}
		if k++; k%3 != 0 {
			out = append(out, r[start:end+1]...)
		} else {
			ev := event{kind: opUser, user: r[end].user}
			for _, e := range r[start:end] {
				switch e.kind {
				case opProxy:
					ev.recs.Proxy = append(ev.recs.Proxy, e.proxy)
				case opMME:
					ev.recs.MME = append(ev.recs.MME, e.mme)
				case opUDR:
					ev.recs.UDR = append(ev.recs.UDR, e.udr)
				}
			}
			out = append(out, ev)
		}
		start = end + 1
	}
	return out
}

// recordedStream records the user-major per-record stream of a dataset
// of 384 subscribers, with the study's Env for it.
func recordedStream(t *testing.T) (Env, recorder) {
	t.Helper()
	cfg := sim.SmallConfig(7)
	cfg.Population.WearableUsers = 128
	cfg.Population.OrdinaryUsers = 256
	cfg.Cells = cells.Config{UrbanSectors: 40, RuralSectors: 20}
	cfg.OrdinaryMobilitySample = 64
	ds, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all recorder
	if err := (&stream.Logs{Proxy: &ds.Proxy, MME: &ds.MME, UDR: &ds.UDR}).Stream(&all); err != nil {
		t.Fatal(err)
	}
	return Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}, all
}

// cutStream keeps, of a user-major stream, the first n subscribers each
// worker owns at the given worker count. The n-th keeps only the first
// half of their records and loses their UserDone, so they are still open
// when the source returns, unless they come whole (opUser). Each
// worker's queue then carries exactly n jobs: n-1 queued as the stream
// goes and the last one either then or when the source returns.
func cutStream(t *testing.T, events recorder, workers, n int) recorder {
	t.Helper()
	var out recorder
	seen := make([]int, workers)
	for start := 0; start < len(events); {
		end := start + 1
		if events[start].kind != opUser {
			for events[end-1].kind != opUserDone {
				end++
			}
		}
		w := ownerOf(events[start].user, workers)
		seen[w]++
		switch k := seen[w]; {
		case k < n, k == n && events[start].kind == opUser:
			out = append(out, events[start:end]...)
		case k == n:
			recs := events[start : end-1]
			out = append(out, recs[:(len(recs)+1)/2]...)
		}
		start = end
	}
	for w, k := range seen {
		if k < n {
			t.Fatalf("workers=%d: worker %d owns %d subscribers, want at least %d; the dataset is too small", workers, w, k, n)
		}
	}
	return out
}

// TestQueueBoundaries checks the workers' queues at their capacity's
// edges: a source giving every worker exactly 0, 1, queuedUsers-1,
// queuedUsers, queuedUsers+1 or, so that every queue slot is reused,
// 3·queuedUsers finished subscribers must yield the Results of one
// worker. The source keeps the dataset's user-major order and cuts each
// worker's share, as the owner hash routes it, at that many subscribers
// (cutStream), so the last subscriber of a worker may lose records and
// UserDone and be queued when the source returns. It runs once with
// per-record events only and once with every third subscriber handed
// over whole (opUser), so subscribers that end at UserDone, at User
// and at the end of the stream share the queues.
func TestQueueBoundaries(t *testing.T) {
	env, all := recordedStream(t)
	// study runs the engine over src and checks, when the source has
	// returned, that the feed still holds exactly the subscribers the
	// source left open: every other one was queued as it finished.
	study := func(src recorder, workers int) []byte {
		cfg := DefaultConfig()
		cfg.Workers = workers
		e, err := newEngine(env, cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		f := e.start()
		if err := src.Stream(f); err != nil {
			t.Fatal(err)
		}
		open := map[subs.IMSI]bool{}
		for _, ev := range src {
			open[ev.user] = ev.kind != opUserDone && ev.kind != opUser
		}
		for user, o := range open {
			if _, ok := f.open[user]; o != ok {
				t.Errorf("workers=%d: subscriber %d open after the stream: %v, want %v", workers, user, ok, o)
			}
		}
		f.flush()
		f.stop()
		res, err := e.run(&recorder{}) // the stream has ended: merge, finalize
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	mixed := wholeUsers(all)
	for _, workers := range []int{2, 3} {
		for name, events := range map[string]recorder{"per-record": all, "mixed": mixed} {
			for _, n := range []int{0, 1, queuedUsers - 1, queuedUsers, queuedUsers + 1, 3 * queuedUsers} {
				src := cutStream(t, events, workers, n)
				if a, b := study(src, 1), study(src, workers); string(a) != string(b) {
					t.Errorf("%s, workers=%d, %d subscribers per worker: Results differ from one worker's", name, workers, n)
				}
			}
		}
	}
}

// TestEmptyUserLeavesNoResidue: a whole subscriber whose gather brings no
// records leaves nothing behind, like a UserDone for a subscriber who
// sent none, and nobody stays open.
func TestEmptyUserLeavesNoResidue(t *testing.T) {
	cfg := sim.SmallConfig(7)
	cfg.Population.WearableUsers = 4
	cfg.Population.OrdinaryUsers = 4
	cfg.Cells = cells.Config{UrbanSectors: 10, RuralSectors: 5}
	cfg.OrdinaryMobilitySample = 2
	src, err := sim.NewStreamSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(Env{Devices: src.Devices, Topology: src.Topology, Catalog: src.Catalog}, DefaultConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	f := e.start()
	if err := f.User(5, func(*stream.Records) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.UserDone(6); err != nil {
		t.Fatal(err)
	}
	f.stop()
	residues := 0
	for _, w := range e.workers {
		residues += len(w.acc.stats)
	}
	if residues != 0 || len(f.open) != 0 {
		t.Errorf("after empty subscribers: %d residues, %d open; want 0 and 0", residues, len(f.open))
	}
}

// errSourceBroken is the failure of brokenSource.
var errSourceBroken = errors.New("source broken")

// brokenSource replays the events of a recorded stream up to its k-th
// record, then fails, as a decoder meeting a damaged frame does.
type brokenSource struct {
	events recorder
	k      int
}

func (s brokenSource) Stream(sink stream.Sink) error {
	n, i := 0, 0
	for ; i < len(s.events) && n < s.k; i++ {
		ev := s.events[i]
		n += len(ev.recs.Proxy) + len(ev.recs.MME) + len(ev.recs.UDR)
		if ev.kind == opProxy || ev.kind == opMME || ev.kind == opUDR {
			n++
		}
	}
	head := s.events[:i]
	if err := head.Stream(sink); err != nil {
		return err
	}
	return errSourceBroken
}

// TestRunStreamJoinsOnSourceError: a source that fails after k records
// makes RunStream return its error, and every fan-out worker has exited
// by then, whether the failure lands in the first batch, mid-stream or
// with most of the stream replayed, with per-record events only or with
// whole subscribers mixed in.
func TestRunStreamJoinsOnSourceError(t *testing.T) {
	env, all := recordedStream(t)
	records := 0
	for _, ev := range all {
		if ev.kind != opUserDone {
			records++
		}
	}
	if records <= 40000 {
		t.Fatalf("the stream has %d records; the dataset is too small", records)
	}
	for name, events := range map[string]recorder{"per-record": all, "mixed": wholeUsers(all)} {
		for _, w := range []int{1, 2, 8} {
			for _, k := range []int{1, 2000, 40000} {
				cfg := DefaultConfig()
				cfg.Workers = w
				check := leakcheck.Since(t)
				res, err := RunStream(env, brokenSource{events, k}, cfg)
				if !errors.Is(err, errSourceBroken) || res != nil {
					t.Errorf("%s, Workers=%d, k=%d: RunStream = %v, %v; want nil and the source's error", name, w, k, res, err)
				}
				check()
			}
		}
	}
}
