package wearwild

// Micro-benchmarks under go test -bench: the whole study, its worker
// sweep, generation, and the ablations DESIGN.md calls out. The
// repository benchmark, end to end and layer by layer, is cmd/wearperf.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wearwild/internal/analysis"
	"wearwild/internal/core"
	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/study/appid"
	"wearwild/internal/study/sessions"
)

var (
	benchOnce sync.Once
	benchDS   *sim.Dataset
	benchErr  error
)

// benchSetup generates the shared benchmark dataset once per process.
func benchSetup(b *testing.B) *sim.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sim.DefaultConfig(1234)
		cfg.Population.WearableUsers = 1000
		cfg.Population.OrdinaryUsers = 3000
		cfg.Cells.UrbanSectors = 600
		cfg.Cells.RuralSectors = 250
		cfg.OrdinaryMobilitySample = 1000
		benchDS, benchErr = sim.Generate(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkGenerate times full dataset generation (the substrate sweep
// behind every figure).
func BenchmarkGenerate(b *testing.B) {
	cfg := sim.SmallConfig(7)
	cfg.Population.WearableUsers = 300
	cfg.Population.OrdinaryUsers = 900
	cfg.OrdinaryMobilitySample = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := sim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ds.Proxy.Len()), "proxyrecs")
	}
}

// BenchmarkStudyFull times the complete analysis pipeline.
func BenchmarkStudyFull(b *testing.B) {
	ds := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunDataset(ds, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyFullParallel sweeps the analysis worker bound over the
// same dataset. Results are byte-identical at every setting (see
// TestParallelEquivalence); the sweep quantifies the shard-and-merge
// speedup on this machine's cores.
func BenchmarkStudyFullParallel(b *testing.B) {
	ds := benchSetup(b)
	sweep := []int{1, 2, runtime.NumCPU()}
	for _, workers := range sweep {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunDataset(ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// Codec ablation: the compact binary proxy-log codec vs CSV.
func benchProxyRecords(b *testing.B) []proxylog.Record {
	b.Helper()
	ds := benchSetup(b)
	var recs []proxylog.Record
	for _, rec := range ds.Proxy.Records {
		if !ds.Devices.IsWearable(rec.IMEI) {
			continue
		}
		recs = append(recs, rec)
		if len(recs) == 50000 {
			break
		}
	}
	return recs
}

func BenchmarkCodecCSVEncode(b *testing.B) {
	recs := benchProxyRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := proxylog.WriteCSV(&buf, recs); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(size)/float64(len(recs)), "B/rec")
}

func BenchmarkCodecBinaryEncode(b *testing.B) {
	recs := benchProxyRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := proxylog.WriteBinary(&buf, recs); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(size)/float64(len(recs)), "B/rec")
}

func BenchmarkCodecCSVDecode(b *testing.B) {
	recs := benchProxyRecords(b)
	var buf bytes.Buffer
	if err := proxylog.WriteCSV(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxylog.ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecBinaryDecode(b *testing.B) {
	recs := benchProxyRecords(b)
	var buf bytes.Buffer
	if err := proxylog.WriteBinary(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxylog.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// Sessionisation-gap ablation: the paper's 1-minute boundary vs tighter
// and looser gaps. The usages/run metric shows how the choice reshapes
// what counts as one usage.
func benchSessionize(b *testing.B, gap time.Duration) {
	recs := benchProxyRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	var usages int
	for i := 0; i < b.N; i++ {
		usages = len(sessions.Sessionize(recs, gap))
	}
	b.ReportMetric(float64(usages), "usages")
}

func BenchmarkSessionizeGap30s(b *testing.B) { benchSessionize(b, 30*time.Second) }
func BenchmarkSessionizeGap1m(b *testing.B)  { benchSessionize(b, time.Minute) }
func BenchmarkSessionizeGap5m(b *testing.B)  { benchSessionize(b, 5*time.Minute) }

// App-attribution ablation: the paper's timeframe-correlation (majority
// vote) against the cheaper first-anchor strategy. The attributed_pct
// metric shows coverage; agree_pct how often the strategies concur.
func BenchmarkAttribute(b *testing.B) {
	recs := benchProxyRecords(b)
	usages := sessions.Sessionize(recs, time.Minute)
	resolver := appid.NewResolver(apps.DefaultWithTail())
	b.ReportAllocs()
	b.ResetTimer()
	var attributed int
	for i := 0; i < b.N; i++ {
		out := resolver.Attribute(usages)
		attributed = 0
		for _, u := range out {
			if u.App != nil {
				attributed++
			}
		}
	}
	b.ReportMetric(100*float64(attributed)/float64(len(usages)), "attributed_pct")
}

// Wearlint ablation: the per-unit pass cache. The first Run pays full
// type-checking plus call-graph construction; repeat Runs reuse the
// cached passes, graph, and suppression index, so all eight analyzers
// (and every rerun) share one type-check per unit. cold_ms is the first
// run; the timed loop is the warm path; speedup is their ratio.
func BenchmarkWearlintModule(b *testing.B) {
	mod, err := analysis.LoadModule(".")
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if _, err := mod.Run(); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(start)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cold.Milliseconds()), "cold_ms")
	warm := b.Elapsed() / time.Duration(b.N)
	if warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "speedup")
	}
	// Lint-perf smoke: CI runs this with -benchtime 1x so a new check
	// can't silently make `make lint` crawl as the catalog grows. The
	// ceiling is generous — shared CI hosts are slow and noisy — but an
	// accidentally superlinear analyzer blows far past it.
	const warmCeiling = 30 * time.Second
	if warm > warmCeiling {
		b.Fatalf("warm module lint took %v per run, above the %v ceiling", warm, warmCeiling)
	}
}

func BenchmarkAttributeAnchor(b *testing.B) {
	recs := benchProxyRecords(b)
	usages := sessions.Sessionize(recs, time.Minute)
	resolver := appid.NewResolver(apps.DefaultWithTail())
	vote := resolver.Attribute(usages)
	b.ReportAllocs()
	b.ResetTimer()
	var anchor []appid.Attributed
	for i := 0; i < b.N; i++ {
		anchor = resolver.AttributeAnchor(usages)
	}
	b.StopTimer()
	agree := 0
	for i := range anchor {
		if anchor[i].App == vote[i].App {
			agree++
		}
	}
	b.ReportMetric(100*float64(agree)/float64(len(anchor)), "agree_pct")
}
