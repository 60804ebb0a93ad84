package core

import (
	"encoding/json"
	"testing"

	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// event is one recorded stream event; user is the subscriber it belongs
// to, and kind selects the payload (opProxy, opMME, opUDR or opUserDone).
type event struct {
	kind  uint8
	user  subs.IMSI
	proxy proxylog.Record
	mme   mme.Record
	udr   udr.Record
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
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestFanOutBatchBoundaries checks the batched fan-out at the batch size's
// edges: a source giving every worker exactly 0, 1, batchEvents-1,
// batchEvents, batchEvents+1 or, so that every batch is refilled after
// its replay, 2·batchesPerWorker·batchEvents events must yield the
// Results of the one-worker direct path. The source keeps the tiny dataset's user-major
// order and cuts each worker's share at its budget, so the last
// subscriber of a worker may lose records and UserDone and be sealed.
func TestFanOutBatchBoundaries(t *testing.T) {
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
	env := Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}
	// study runs the engine over src and checks, before sealing, that
	// exactly the subscribers the source left open are still pending:
	// every UserDone reached its subscriber's shard.
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
			open[ev.user] = ev.kind != opUserDone
		}
		want, pending := 0, 0
		for _, o := range open {
			if o {
				want++
			}
		}
		for _, p := range e.pending {
			pending += len(p)
		}
		if pending != want {
			t.Errorf("workers=%d: %d subscribers pending after the stream, want %d", workers, pending, want)
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
	for _, workers := range []int{2, 3} {
		// The last size refills every batch after its replay.
		for _, n := range []int{0, 1, batchEvents - 1, batchEvents, batchEvents + 1, 2 * batchesPerWorker * batchEvents} {
			var src recorder
			got := make([]int, workers)
			for _, ev := range all {
				if w := shardOf(ev.user) % workers; got[w] < n {
					src = append(src, ev)
					got[w]++
				}
			}
			for w, k := range got {
				if k != n {
					t.Fatalf("workers=%d: worker %d gets %d events, want %d; the dataset is too small", workers, w, k, n)
				}
			}
			if a, b := study(&src, 1), study(&src, workers); string(a) != string(b) {
				t.Errorf("workers=%d, %d events per worker: fan-out Results differ from the direct path", workers, n)
			}
		}
	}
}
