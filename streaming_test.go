package wearwild

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"wearwild/internal/core"
	"wearwild/internal/gen/sim"
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
