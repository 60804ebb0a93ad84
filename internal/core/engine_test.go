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

// TestFanOutBatchBoundaries checks the batched fan-out at the batch size's
// edges: a source giving every worker exactly 0, 1, batchUsers-1,
// batchUsers, batchUsers+1, batchEvents-1, batchEvents, batchEvents+1
// or, so that every batch is refilled after its replay,
// 2·batchesPerWorker·batchEvents events must yield the Results of the
// one-worker direct path. The source keeps the tiny dataset's user-major
// order and cuts each worker's share, as the engine's owner hash routes
// it, at its budget, so the last subscriber of a worker may lose records
// and UserDone and be sealed. It runs once with per-record events only
// and once with every third subscriber handed over whole (opUser), so
// whole subscribers and per-record events share batches and fill them
// by either limit.
func TestFanOutBatchBoundaries(t *testing.T) {
	env, all := recordedStream(t)
	// study runs the engine over src and checks, before sealing, that
	// each worker still holds exactly the subscribers the source left open
	// among those it owns: every UserDone reached its subscriber's worker.
	study := func(src *recorder, workers int) []byte {
		cfg := DefaultConfig()
		cfg.Workers = workers
		e, err := newEngine(env, cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.consume(src); err != nil {
			t.Fatal(err)
		}
		open := map[subs.IMSI]bool{}
		for _, ev := range *src {
			open[ev.user] = ev.kind != opUserDone && ev.kind != opUser
		}
		want := make([]int, workers)
		for user, o := range open {
			if o {
				want[ownerOf(user, workers)]++
			}
		}
		for i, w := range e.workers {
			if len(w.pending) != want[i] {
				t.Errorf("workers=%d: worker %d has %d subscribers pending after the stream, want %d", workers, i, len(w.pending), want[i])
			}
		}
		res, err := e.run(&recorder{}) // the stream has ended: seal, merge, finalize
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
			// batchUsers-1 to batchUsers+1 cut around a batch filled by
			// whole subscribers; the last size refills every batch after
			// its replay.
			for _, n := range []int{0, 1, batchUsers - 1, batchUsers, batchUsers + 1, batchEvents - 1, batchEvents, batchEvents + 1, 2 * batchesPerWorker * batchEvents} {
				var src recorder
				got := make([]int, workers)
				for _, ev := range events {
					if w := ownerOf(ev.user, workers); got[w] < n {
						src = append(src, ev)
						got[w]++
					}
				}
				for w, k := range got {
					if k != n {
						t.Fatalf("%s, workers=%d: worker %d gets %d events, want %d; the dataset is too small", name, workers, w, k, n)
					}
				}
				if a, b := study(&src, 1), study(&src, workers); string(a) != string(b) {
					t.Errorf("%s, workers=%d, %d events per worker: fan-out Results differ from the direct path", name, workers, n)
				}
			}
		}
	}
}

// TestEmptyUserLeavesNoResidue: a whole subscriber whose gather brings no
// records leaves nothing behind, like a UserDone for a subscriber who
// sent none, and the bundle goes back to the spare.
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
	w := e.workers[0]
	sink := directSink{e, w}
	if err := sink.User(5, func(*stream.Records) {}); err != nil {
		t.Fatal(err)
	}
	if err := sink.UserDone(6); err != nil {
		t.Fatal(err)
	}
	if len(w.acc.stats) != 0 || len(w.pending) != 0 || w.spare == nil {
		t.Errorf("after empty subscribers: %d residues, %d pending, spare %v; want 0, 0 and a spare", len(w.acc.stats), len(w.pending), w.spare != nil)
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
