package wearwild

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"wearwild/internal/core"
	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// metricValues flattens an evaluation into "experiment/metric" → measured
// value, the 49-metric surface the paper-reproduction gate scores.
func metricValues(t *testing.T, res *Results) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, e := range Evaluate(res) {
		for _, m := range e.Metrics {
			key := e.ID + "/" + m.Name
			if _, dup := out[key]; dup {
				t.Fatalf("duplicate metric key %s", key)
			}
			out[key] = m.Measured
		}
	}
	return out
}

// TestStreamingMetricsEquivalence pins the streaming engine's scheduling
// independence at the metric level: all 49 paper-comparison metrics must
// be byte-identical (exact float equality, not tolerance) across
// Workers ∈ {1, 2, 8}. TestParallelEquivalence covers the whole Results
// tree; this test scores the surface the reproduction is graded on, so a
// drift inside any single figure names the metric it moved.
func TestStreamingMetricsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds := eqDataset(t)
	_, refJSON := runWith(t, ds, 1)
	refRes := new(Results)
	if err := json.Unmarshal(refJSON, refRes); err != nil {
		t.Fatal(err)
	}
	ref := metricValues(t, refRes)
	const wantMetrics = 49
	if len(ref) != wantMetrics {
		t.Fatalf("metric surface changed: got %d metrics, want %d", len(ref), wantMetrics)
	}
	for _, workers := range []int{2, 8} {
		res, _ := runWith(t, ds, workers)
		got := metricValues(t, res)
		for key, want := range ref {
			if got[key] != want {
				t.Errorf("workers=%d: metric %s = %v, want %v (sequential)", workers, key, got[key], want)
			}
		}
	}
}

// TestGeneratorStreamEquivalence pins the producer side of the stream
// interface: running the engine straight off sim.StreamSource — records
// derived one subscriber at a time, never a resident log — must produce
// the same Results tree, byte for byte, as the resident-dataset path for
// the same Config.
func TestGeneratorStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds := eqDataset(t)
	_, refJSON := runWith(t, ds, 2)

	src, err := sim.NewStreamSource(SmallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	// Consume the population while streaming: the results must be
	// byte-identical whether or not the source releases users behind
	// itself (generation never reads another subscriber's entry).
	src.ConsumeUsers = true
	cfg := core.DefaultConfig()
	cfg.Workers = 2
	res, err := core.RunStream(core.Env{
		Devices:  src.Devices,
		Topology: src.Topology,
		Catalog:  src.Catalog,
	}, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(refJSON) {
		i := 0
		for i < len(raw) && i < len(refJSON) && raw[i] == refJSON[i] {
			i++
		}
		lo := max(i-80, 0)
		hi := min(i+80, len(raw))
		t.Errorf("generator stream diverges from resident dataset at byte %d: …%s…", i, raw[lo:hi])
	}
}

// peakHeapDuring runs fn while sampling runtime.MemStats, returning the
// highest HeapAlloc observed.
func peakHeapDuring(fn func() error) (uint64, error) {
	runtime.GC()
	read := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	peak := read()
	done := make(chan struct{})
	sampled := make(chan uint64, 1)
	go func() {
		max := uint64(0)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sampled <- max
				return
			case <-tick.C:
				if h := read(); h > max {
					max = h
				}
			}
		}
	}()
	err := fn()
	close(done)
	if max := <-sampled; max > peak {
		peak = max
	}
	if h := read(); h > peak {
		peak = h
	}
	return peak, err
}

// bigMemCeiling is the heap ceiling of TestBoundedMemory100x: 2× the
// 143,074,400 B peak heap of the streaming study at SmallConfig scale,
// measured when the engine became streaming.
const bigMemCeiling = 286_148_800

// TestBoundedMemory100x is the bounded-memory contract of the streaming
// engine: a population 100× the small benchmark scale, streamed straight
// from the generator (no resident dataset anywhere), must complete the
// full study under bigMemCeiling. The surviving heap is O(population)
// subscriber state (substrate + one userStat each), never O(records) —
// the old engine materialised every record and could not finish this run
// at all.
//
// The run takes several minutes single-threaded, so it is opt-in:
//
//	WEARWILD_BIGMEM=1 go test -run TestBoundedMemory100x -timeout 30m .
func TestBoundedMemory100x(t *testing.T) {
	if os.Getenv("WEARWILD_BIGMEM") == "" {
		t.Skip("set WEARWILD_BIGMEM=1 to run the 100× bounded-memory study")
	}

	// The ceiling bounds heap occupancy, not allocation throughput; run
	// the collector eagerly so floating garbage does not dominate the
	// sampled peak on a multi-minute single-pass run.
	defer debug.SetGCPercent(debug.SetGCPercent(20))

	cfg := SmallConfig(1234)
	cfg.Population.WearableUsers *= 100
	cfg.Population.OrdinaryUsers *= 100
	cfg.OrdinaryMobilitySample *= 100

	src, err := sim.NewStreamSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream-only run: nothing reads the population after its records are
	// out, so let the source release each subscriber as they stream — the
	// heap then holds the study's per-subscriber state plus only the
	// unstreamed population tail, never both substrate and residues in
	// full.
	src.ConsumeUsers = true
	var res *Results
	peak, err := peakHeapDuring(func() error {
		var err error
		res, err = core.RunStream(core.Env{
			Devices:  src.Devices,
			Topology: src.Topology,
			Catalog:  src.Catalog,
		}, src, core.DefaultConfig())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fig2a.WearableUsers == 0 {
		t.Fatal("100× study identified no wearable users")
	}
	t.Logf("100× population: peak heap %d bytes (ceiling %d)", peak, bigMemCeiling)
	if peak >= bigMemCeiling {
		t.Fatalf("peak heap %d bytes breaches the 2× small-run ceiling %d: %.2fx",
			peak, bigMemCeiling, 2*float64(peak)/bigMemCeiling)
	}
}

// residencyBound is TestStreamingResidency's ceiling on the live-heap
// change per streamed record, either way. On SmallConfig(42) (2-CPU host,
// with and without -race) the clean engine moves 0.00–0.03 B per record
// of its halved second pass and the decoders about 0 B; an engine that
// keeps records grows 17–27 B when it keeps only the wearable ones
// (addApps' wearRecs, addPresence's wearable MME records) and 50–56 B
// when it keeps every proxy record, and one whose per-subscriber residue
// holds a subscriber's wearable records shrinks 21 B. The bound sits at
// least 5× from the clean values and from every leak but one resolution
// probe: keeping only the UDR records (13% of the records) moves 3.3 B,
// and a leak of a smaller share would pass.
const residencyBound = 3.0

// heapMark is one live-heap reading taken mid-stream.
type heapMark struct {
	records int
	heap    uint64
}

// heapReadings are live-heap readings, each taken after runtime.GC().
type heapReadings []heapMark

func (h *heapReadings) read(records int) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	*h = append(*h, heapMark{records, ms.HeapAlloc})
}

// check requires the live heap to move by at most residencyBound bytes per
// record streamed between the two readings.
func (h heapReadings) check(t *testing.T, what string) {
	t.Helper()
	if len(h) != 2 || h[1].records <= h[0].records {
		t.Fatalf("want two readings over a growing stream, got %+v", h)
	}
	g := float64(int64(h[1].heap)-int64(h[0].heap)) / float64(h[1].records-h[0].records)
	t.Logf("%d records between the readings: %.2f B live-heap change per record", h[1].records-h[0].records, g)
	if math.Abs(g) > residencyBound {
		t.Errorf("live heap moves %.1f B per streamed record (bound %.0f): %s holds state sized by the log", g, residencyBound, what)
	}
}

// halvedReplay streams src into one sink twice, sending every record twice
// in the first pass and once in the second, and reads the live heap at
// the end of each pass. The second pass repeats the population with half
// its log, so state sized by the subscribers is the same size after
// either pass, every buffer already has the capacity of the first pass's
// larger bundles, and only state sized by the log moves: records kept
// grow the heap, and per-subscriber state that holds a subscriber's
// records shrinks it.
//
// With whole set, the source sees a stream.UserSink and the engine gets
// whole subscribers, whose gathers append the records twice in the first
// pass; otherwise the source falls back to per-record calls. Gathers run
// on the engine's workers, so the record count is atomic; a reading may
// miss the records of subscribers still queued, the same few at the end
// of either pass.
type halvedReplay struct {
	stream.Sink
	src      stream.Source
	whole    bool
	copies   int
	records  atomic.Int64
	readings heapReadings
}

func (r *halvedReplay) Stream(sink stream.Sink) error {
	r.Sink = sink
	var through stream.Sink = r
	if r.whole {
		through = wholeReplay{r}
	}
	for _, copies := range []int{2, 1} {
		r.copies = copies
		if err := r.src.Stream(through); err != nil {
			return err
		}
		r.readings.read(int(r.records.Load()))
	}
	return nil
}

func (r *halvedReplay) Proxy(rec proxylog.Record) error { return sendCopies(r, rec, r.Sink.Proxy) }
func (r *halvedReplay) MME(rec mme.Record) error        { return sendCopies(r, rec, r.Sink.MME) }
func (r *halvedReplay) UDR(rec udr.Record) error        { return sendCopies(r, rec, r.Sink.UDR) }

func sendCopies[R any](r *halvedReplay, rec R, send func(R) error) error {
	for range r.copies {
		r.records.Add(1)
		if err := send(rec); err != nil {
			return err
		}
	}
	return nil
}

// wholeReplay is halvedReplay's stream.UserSink face.
type wholeReplay struct{ *halvedReplay }

func (r wholeReplay) User(imsi subs.IMSI, gather func(*stream.Records)) error {
	copies := r.copies
	return stream.PerUser(r.Sink).User(imsi, func(dst *stream.Records) {
		before := len(dst.Proxy) + len(dst.MME) + len(dst.UDR)
		for range copies {
			gather(dst)
		}
		r.records.Add(int64(len(dst.Proxy) + len(dst.MME) + len(dst.UDR) - before))
	})
}

// countingSink counts the records it is streamed and reads the live heap
// at the record numbers in at.
type countingSink struct {
	at       map[int]bool
	records  int
	readings heapReadings
}

func (c *countingSink) count() error {
	c.records++
	if c.at[c.records] {
		c.readings.read(c.records)
	}
	return nil
}

func (c *countingSink) Proxy(proxylog.Record) error { return c.count() }
func (c *countingSink) MME(mme.Record) error        { return c.count() }
func (c *countingSink) UDR(udr.Record) error        { return c.count() }
func (c *countingSink) UserDone(subs.IMSI) error    { return nil }

// TestStreamingResidency is the memory contract of DESIGN.md §8 at test
// scale: while a stream is live, the heap may hold state sized by the
// subscribers but none sized by the records. The engine part runs the
// generator sweep through halvedReplay at one and two workers, handing
// the engine whole subscribers and per-record calls in turn, and bounds
// the heap's change per record of the second pass, which spans every
// subscriber, wearable owners and ordinary users alike. The decoder part
// reads the heap a quarter of the way through the three log decoders'
// stream and at its end, and bounds the growth per record in between.
func TestStreamingResidency(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("engine/workers=%d", workers), func(t *testing.T) {
			for name, whole := range map[string]bool{"whole-users": true, "per-record": false} {
				t.Run(name, func(t *testing.T) {
					src, err := sim.NewStreamSource(SmallConfig(42))
					if err != nil {
						t.Fatal(err)
					}
					// The source streams twice, so it keeps its population
					// (ConsumeUsers unset), the same at both readings.
					r := &halvedReplay{src: src, whole: whole}
					cfg := core.DefaultConfig()
					cfg.Workers = workers
					if _, err := core.RunStream(core.Env{Devices: src.Devices, Topology: src.Topology, Catalog: src.Catalog}, r, cfg); err != nil {
						t.Fatal(err)
					}
					r.readings.check(t, "the engine")
				})
			}
		})
	}
	t.Run("decoders", func(t *testing.T) {
		ds := eqDataset(t)
		var prx, mm, ud bytes.Buffer
		if err := proxylog.WriteBinary(&prx, ds.Proxy.Records); err != nil {
			t.Fatal(err)
		}
		if err := mme.WriteCSV(&mm, ds.MME.Records); err != nil {
			t.Fatal(err)
		}
		if err := udr.WriteCSV(&ud, ds.UDR.Records); err != nil {
			t.Fatal(err)
		}
		n := len(ds.Proxy.Records) + len(ds.MME.Records) + len(ds.UDR.Records)
		c := &countingSink{at: map[int]bool{n / 4: true, n: true}}
		src := &stream.Readers{
			ProxyBinary: bytes.NewReader(prx.Bytes()),
			MMECSV:      bytes.NewReader(mm.Bytes()),
			UDRCSV:      bytes.NewReader(ud.Bytes()),
		}
		if err := src.Stream(c); err != nil {
			t.Fatal(err)
		}
		// The encodings stay reachable to the end, so the last reading
		// does not drop the feeds already read.
		runtime.KeepAlive(src)
		c.readings.check(t, "a decoder")
	})
}
