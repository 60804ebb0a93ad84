package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"wearwild/internal/core"
	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"batch":          runBatch,
	"study-files":    runStudyFiles,
	"study-resident": runStudyResident,
	"collect":        runCollect,
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 3

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 3

// bench is one benchmark run: its flags, its report and, in the traced
// phase of a -trace 1 run, the tracer.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tr       *tracer
	rep      *runReport
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wearperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: batch, study-files, study-resident or collect")
	seed := fs.Uint64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spansPath := fs.String("spans", "", "file the spans of a -trace 1 run are written to (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "wearperf: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "wearperf: %v\n", err)
		return 2
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, rep: newReport()}
	if b.traced {
		b.tr = newTracer()
	}

	calBefore := calibrate()
	cpu0 := readHostCPU()
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "wearperf: %s: %v\n", b.workload, err)
		return 1
	}
	steal, util := hostNoise(cpu0, readHostCPU())
	calAfter := calibrate()
	warnDrift(calBefore, calAfter)
	b.rep.set("host.calib_ms", "ms", (calBefore+calAfter)/2, 6, fmt.Sprintf("before %.2f, after %.2f", calBefore, calAfter))
	b.rep.set("host.steal_pct", "%", steal, 1, "share of host CPU time stolen, from /proc/stat")
	b.rep.set("proc.cpu_util", "cores", util, 1, "process CPU seconds per wall second, from rusage")

	want := sp.EndToEnd
	if b.traced {
		b.tr.printSelfTimes(stdout)
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
		}
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "wearperf: writing spans: %v\n", err)
			return 1
		}
		want = sp.PerLayer
	}
	if err := b.rep.emit(stdout, want); err != nil {
		fmt.Fprintf(stderr, "wearperf: %v\n", err)
		return 2
	}
	if b.rep.failed > 0 {
		return 1
	}
	return 0
}

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics each
// kind of run must report. BENCHMARK.json is the single source of truth
// for which measurements are end-to-end and which per-layer.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s names no end_to_end or per_layer metrics", path)
	}
	return sp, nil
}

// metric is one reported measurement. Timings carry their quartiles; a
// ratio or derived value says what it was derived from in note.
type metric struct {
	name, unit string
	value      float64
	n          int
	q1, q3     float64
	timing     bool
	note       string
}

// runReport collects the run's metrics and its correctness verdict.
type runReport struct {
	order     []string
	metrics   map[string]*metric
	attempted int
	failed    int
}

func newReport() *runReport { return &runReport{metrics: make(map[string]*metric)} }

func (r *runReport) put(m *metric) {
	if _, ok := r.metrics[m.name]; !ok {
		r.order = append(r.order, m.name)
	}
	r.metrics[m.name] = m
}

// set records a single-valued metric measured from n samples.
func (r *runReport) set(name, unit string, v float64, n int, note string) {
	r.put(&metric{name: name, unit: unit, value: v, n: n, note: note})
}

// setTiming records a timing as its median, with quartiles; scale
// converts the samples' unit to the metric's.
func (r *runReport) setTiming(name, unit string, samples []float64, scale float64, note string) {
	s := sortedCopy(samples)
	r.put(&metric{name: name, unit: unit, value: percentile(s, 50) * scale, n: len(s),
		q1: percentile(s, 25) * scale, q3: percentile(s, 75) * scale, timing: true, note: note})
}

// check counts one correctness check; a failed one is printed to stderr
// and fails the run.
func (r *runReport) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "wearperf: check failed: "+format+"\n", args...)
	}
	return ok
}

// emit prints every metric as a table line, then the verdict and the
// metrics want names as the final JSON line.
func (r *runReport) emit(w io.Writer, want []specMetric) error {
	out := make(map[string]map[string]any, len(want))
	for _, sm := range want {
		m, ok := r.metrics[sm.Name]
		if !ok {
			return fmt.Errorf("metric %s named in the benchmark definition was not measured", sm.Name)
		}
		if m.unit != sm.Unit {
			return fmt.Errorf("metric %s measured in %s, defined in %s", sm.Name, m.unit, sm.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", sm.Name, m.value)
		}
		out[sm.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("metric %-32s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.timing {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.q1, m.q3)
		}
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(w, line)
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// sizes are the datasets the workloads run on: sim.SmallConfig, and the
// same world with a half or a quarter of its subscribers, so that set-up
// and a whole batch pass fit the run length.
var sizes = map[string]int{"small": 1, "half": 2, "quarter": 4}

func sizedConfig(size string, seed uint64) sim.Config {
	cfg := sim.SmallConfig(seed)
	div := sizes[size]
	cfg.Population.WearableUsers /= div
	cfg.Population.OrdinaryUsers /= div
	cfg.OrdinaryMobilitySample /= div
	return cfg
}

// prepared is a generated dataset with its encodings and reference study.
type prepared struct {
	size string // a key of sizes, and of the pinned digests
	ds   *sim.Dataset
	env  core.Env
	raw  [3][]byte // proxy binary, MME CSV, UDR CSV: sim.Save's formats before gzip
	gz   [3][]byte
	ref  *core.Results
	// refDigest is the SHA-256 of ref's JSON.
	refDigest string
}

// users counts the distinct subscribers in the dataset's logs.
func (p *prepared) users() int {
	return len(distinctIMSIs(p.ds.Proxy.Records, p.ds.MME.Records, p.ds.UDR.Records))
}

func (p *prepared) records() int64 {
	return int64(p.ds.Proxy.Len() + p.ds.MME.Len() + p.ds.UDR.Len())
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func resultsDigest(res *core.Results) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encoding results: %w", err)
	}
	return sha(raw), nil
}

// encodeLogs writes the dataset's logs in sim.Save's formats, in memory
// and uncompressed.
func encodeLogs(ds *sim.Dataset) ([3][]byte, error) {
	var bufs [3]bytes.Buffer
	if err := proxylog.WriteBinary(&bufs[0], ds.Proxy.Records); err != nil {
		return [3][]byte{}, err
	}
	if err := mme.WriteCSV(&bufs[1], ds.MME.Records); err != nil {
		return [3][]byte{}, err
	}
	if err := udr.WriteCSV(&bufs[2], ds.UDR.Records); err != nil {
		return [3][]byte{}, err
	}
	return [3][]byte{bufs[0].Bytes(), bufs[1].Bytes(), bufs[2].Bytes()}, nil
}

func gzipLogs(raw [3][]byte) ([3][]byte, error) {
	var out [3][]byte
	for i, b := range raw {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(b); err != nil {
			return out, err
		}
		if err := zw.Close(); err != nil {
			return out, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// filesSource decodes gzip'd logs the way a study of saved files does.
func filesSource(gz [3][]byte) (*stream.Readers, error) {
	var zr [3]io.Reader
	for i, b := range gz {
		r, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		zr[i] = r
	}
	return &stream.Readers{ProxyBinary: zr[0], MMECSV: zr[1], UDRCSV: zr[2]}, nil
}

func logsSource(ds *sim.Dataset) *stream.Logs {
	return &stream.Logs{Proxy: &ds.Proxy, MME: &ds.MME, UDR: &ds.UDR}
}

func envOf(ds *sim.Dataset) core.Env {
	return core.Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}
}

// studyRun is one timed core.RunStream.
type studyRun struct {
	res   *core.Results
	total time.Duration
	// afterSource is the time from the source's last record to Results:
	// worker drain, seal, merge and finalize.
	afterSource time.Duration
	alloc       uint64
	src         *timedSource
}

// runStudy runs the engine over src at the given worker count (0: one
// per CPU, the program default).
func runStudy(env core.Env, src stream.Source, workers int, perRecord bool) (studyRun, error) {
	ts := newTimedSource(src, perRecord)
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	a0 := allocated()
	t0 := ts.clock()
	res, err := core.RunStream(env, ts, cfg)
	done := ts.clock()
	if err != nil {
		return studyRun{}, err
	}
	return studyRun{res: res, total: done - t0, afterSource: done - ts.end, alloc: allocated() - a0, src: ts}, nil
}

// prepare generates a dataset and encodes it, and computes the reference
// Results by streaming resident logs (stream.Logs) with refWorkers
// workers. With files set it also gzips the encodings, and the reference
// streams the logs decoded back from them: the MME CSV keeps whole
// seconds, so a study of the saved files differs from one of the
// generated logs, whose MME times carry fractions of a second.
func (b *bench) prepare(size string, files bool, refWorkers int, parent int) (*prepared, error) {
	p := &prepared{size: size}
	var err error
	err = b.tr.do("gen.generate", parent, func(int) error {
		p.ds, err = sim.Generate(sizedConfig(size, b.seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	p.env = envOf(p.ds)
	if err := b.tr.do("codec.encode", parent, func(int) error {
		p.raw, err = encodeLogs(p.ds)
		return err
	}); err != nil {
		return nil, err
	}
	refLogs := p.ds
	if files {
		if err := b.tr.do("codec.gzip", parent, func(int) error {
			p.gz, err = gzipLogs(p.raw)
			return err
		}); err != nil {
			return nil, err
		}
		if err := b.tr.do("codec.decode", parent, func(int) error {
			refLogs, err = decodeLogs(p.raw)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var sr studyRun
	if err := b.tr.do("engine.run", parent, func(int) error {
		sr, err = runStudy(p.env, logsSource(refLogs), refWorkers, false)
		return err
	}); err != nil {
		return nil, err
	}
	p.ref = sr.res
	if p.refDigest, err = resultsDigest(p.ref); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeLogs reads encoded logs back into resident form.
func decodeLogs(raw [3][]byte) (*sim.Dataset, error) {
	ds := &sim.Dataset{}
	var err error
	if ds.Proxy.Records, err = proxylog.ReadBinary(bytes.NewReader(raw[0])); err != nil {
		return nil, err
	}
	if ds.MME.Records, err = mme.ReadCSV(bytes.NewReader(raw[1])); err != nil {
		return nil, err
	}
	if ds.UDR.Records, err = udr.ReadCSV(bytes.NewReader(raw[2])); err != nil {
		return nil, err
	}
	return ds, nil
}

// checkPinned compares a prepared dataset's digests with the ones pinned
// for the golden seed; other seeds have no pinned digests.
func (b *bench) checkPinned(p *prepared) {
	if b.seed != goldenSeed {
		return
	}
	pin, ok := pinned[p.size]
	if !b.rep.check(ok, "no digests pinned for dataset %q: logs %s %s %s, Results %s",
		p.size, sha(p.raw[0]), sha(p.raw[1]), sha(p.raw[2]), p.refDigest) {
		return
	}
	for i, name := range logNames {
		got := sha(p.raw[i])
		b.rep.check(got == pin.logs[i], "%s %s log digest %s, pinned %s", p.size, name, got, pin.logs[i])
	}
	b.rep.check(p.refDigest == pin.results, "%s Results digest %s, pinned %s", p.size, p.refDigest, pin.results)
}

var logNames = [3]string{"proxy", "mme", "udr"}

// setup prepares the workload's dataset setupRepeats times (once in a
// traced run), each time followed by then when it is not nil, reports the
// median as setup_s, and checks the last dataset's pinned digests.
func (b *bench) setup(size string, files bool, refWorkers int, then func(p *prepared, parent int) error) (*prepared, error) {
	n := setupRepeats
	if b.traced {
		n = 1
	}
	var p *prepared
	var times []float64
	for i := 0; i < n; i++ {
		p = nil // each repeat starts from the same heap, not beside the last one's dataset
		runtime.GC()
		t0 := time.Now()
		err := b.tr.do("setup", 0, func(id int) error {
			var err error
			if p, err = b.prepare(size, files, refWorkers, id); err != nil || then == nil {
				return err
			}
			return then(p, id)
		})
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.rep.setTiming("setup_s", "s", times, 1, "")
	b.checkPinned(p)
	return p, nil
}

// passStats is what one pass reports beyond its wall time.
type passStats struct {
	records int64 // records the pass processes
	study   studyRun
	// verify checks the pass's outputs; it runs after the pass is timed.
	verify func() error
}

// passFunc runs one pass under the given tracer and parent span.
type passFunc func(tr *tracer, parent int) (passStats, error)

// verified returns a pass's error, or else the verdict of its check.
func verified(st passStats, err error) error {
	if err == nil && st.verify != nil {
		err = st.verify()
	}
	return err
}

// timePasses runs a warm-up pass, then timed passes for seconds (at least
// minPasses), with a GC before each. It returns each pass's wall time in
// ms and the highest live heap during it in bytes, both taken before the
// pass's outputs are checked. A pass that fails its check counts as
// failed and is dropped.
func (b *bench) timePasses(seconds float64, tr *tracer, pass passFunc) (times, peaks []float64, stats []passStats) {
	runtime.GC()
	if err := verified(pass(nil, 0)); err != nil {
		b.rep.check(false, "warm-up pass: %v", err)
	}
	smp := startSampler()
	defer smp.stop()
	start := time.Now()
	for i := 1; i <= minPasses || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		smp.take()
		id := tr.begin("pass", 0)
		t0 := time.Now()
		st, err := pass(tr, id)
		d := time.Since(t0)
		tr.end(id)
		peak := smp.take()
		if err = verified(st, err); !b.rep.check(err == nil, "pass %d: %v", i, err) {
			continue
		}
		times = append(times, ms(d))
		peaks = append(peaks, float64(peak))
		stats = append(stats, st)
	}
	return times, peaks, stats
}

// measurePasses times the workload's passes and reports the end-to-end
// metrics; dataset is the number of records the workload holds in memory
// and users the distinct subscribers a pass reads. A traced run splits the
// time between untraced and traced passes and also reports the engine
// breakdown and the tracing overhead.
func (b *bench) measurePasses(pass passFunc, dataset int64, users int) error {
	secs := b.seconds
	if b.traced {
		secs /= 2
	}
	times, peaks, stats := b.timePasses(secs, nil, pass)
	if len(times) == 0 {
		return errors.New("no pass succeeded")
	}
	b.passMetrics(times, peaks, stats[0].records, dataset)
	if !b.traced {
		return nil
	}
	ttimes, _, tstats := b.timePasses(secs, b.tr, pass)
	if len(ttimes) == 0 {
		return errors.New("no traced pass succeeded")
	}
	fastest, tfastest := slices.Min(times), slices.Min(ttimes)
	b.rep.set("tracing.overhead_pct", "%", 100*(tfastest-fastest)/fastest, len(ttimes)+len(times),
		"fastest traced pass vs fastest untraced pass")
	b.engineMetrics(tstats, users)
	return nil
}

// passMetrics reports the end-to-end metrics of a workload's passes, each
// of which processes records. The time per record comes from the fastest
// pass: the passes repeat identical work, so the slower ones differ from
// it only by what the host's other tenants took from them. Per record, it
// does not move with how many records a seed happens to generate. The
// heap is the median over passes of each pass's peak, per record the
// workload holds (dataset).
func (b *bench) passMetrics(times, peaks []float64, records, dataset int64) {
	b.rep.set("us_per_record", "us", 1e3*slices.Min(times)/float64(records), len(times),
		fmt.Sprintf("fastest pass / %d records", records))
	b.rep.setTiming("pass_ms", "ms", times, 1, "one whole pass")
	b.rep.set("records_per_s", "1/s", float64(records)/(median(times)/1e3), len(times), "records / median pass")
	b.rep.setTiming("peak_heap_mb", "MB", peaks, 1.0/(1<<20), "a pass's highest live heap, sampled every 1 ms")
	b.rep.set("heap_bytes_per_record", "B", median(peaks)/float64(max(dataset, 1)), len(peaks),
		fmt.Sprintf("median pass peak heap / %d records held", dataset))
}

// engineMetrics reports the stream and engine breakdown from the traced
// passes' timing wrapper, as medians over passes; users is the number of
// distinct subscribers in the input.
func (b *bench) engineMetrics(stats []passStats, users int) {
	var self, ingest, userDone, after, alloc []float64
	var records int64
	for _, st := range stats {
		ts := st.study.src
		self = append(self, ms(ts.sourceSelf()))
		ingest = append(ingest, float64(ts.sink.ingest.Nanoseconds())/float64(max(ts.sink.records, 1)))
		userDone = append(userDone, ms(ts.sink.userDone))
		after = append(after, ms(st.study.afterSource))
		alloc = append(alloc, float64(st.study.alloc)/(1<<20))
		records = ts.sink.records
	}
	b.rep.setTiming("stream.source_self_ms", "ms", self, 1, "streaming time outside sink calls")
	b.rep.setTiming("engine.ingest_ns", "ns", ingest, 1, fmt.Sprintf("per record, base %d records", records))
	b.rep.setTiming("engine.userdone_ms", "ms", userDone, 1, "time inside Sink.UserDone")
	b.rep.setTiming("engine.after_source_ms", "ms", after, 1, "drain, seal, merge, finalize")
	b.rep.setTiming("engine.alloc_mb", "MB", alloc, 1, "bytes allocated per RunStream")
	b.rep.set("engine.records_in", "count", float64(records), len(stats), "")
	b.rep.set("engine.users", "count", float64(users), len(stats), "distinct subscribers in the input")
}

// verifyStudy returns a check of one pass's Results against the reference
// digest.
func verifyStudy(sr studyRun, want string) func() error {
	return func() error {
		got, err := resultsDigest(sr.res)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("Results digest %s, reference %s", got, want)
		}
		return nil
	}
}

// runBatch: each pass is the whole batch pipeline — generate, encode and
// gzip, decode and study the files, render.
func runBatch(b *bench) error {
	p, err := b.setup("quarter", true, 0, nil)
	if err != nil {
		return err
	}
	cfg := sizedConfig("quarter", b.seed)
	pass := func(tr *tracer, parent int) (passStats, error) {
		var st passStats
		var ds *sim.Dataset
		var raw, gz [3][]byte
		var err error
		if err = tr.do("gen.generate", parent, func(int) error {
			ds, err = sim.Generate(cfg)
			return err
		}); err != nil {
			return st, err
		}
		if err = tr.do("codec.encode", parent, func(int) error {
			raw, err = encodeLogs(ds)
			return err
		}); err != nil {
			return st, err
		}
		for i := range raw {
			if !bytes.Equal(raw[i], p.raw[i]) {
				return st, fmt.Errorf("%s log differs from the set-up encoding", logNames[i])
			}
		}
		if err = tr.do("codec.gzip", parent, func(int) error {
			gz, err = gzipLogs(raw)
			return err
		}); err != nil {
			return st, err
		}
		if err = tr.do("engine.run", parent, func(int) error {
			src, err := filesSource(gz)
			if err != nil {
				return err
			}
			st.study, err = runStudy(envOf(ds), src, 0, tr != nil)
			return err
		}); err != nil {
			return st, err
		}
		if _, _, _, err := render(tr, parent, st.study.res); err != nil {
			return st, err
		}
		st.records = int64(ds.Proxy.Len() + ds.MME.Len() + ds.UDR.Len())
		st.verify = verifyStudy(st.study, p.refDigest)
		return st, nil
	}
	if err := b.measurePasses(pass, p.records(), p.users()); err != nil {
		return err
	}
	return b.layerProbes(p, func() (stream.Source, error) { return filesSource(p.gz) })
}

// runStudyFiles: each pass decodes the gzip'd logs and studies them
// through stream.Readers, a record-major source.
func runStudyFiles(b *bench) error {
	p, err := b.setup("quarter", true, 0, nil)
	if err != nil {
		return err
	}
	pass := func(tr *tracer, parent int) (passStats, error) {
		st := passStats{records: p.records()}
		err := tr.do("engine.run", parent, func(int) error {
			src, err := filesSource(p.gz)
			if err != nil {
				return err
			}
			st.study, err = runStudy(p.env, src, 0, tr != nil)
			return err
		})
		st.verify = verifyStudy(st.study, p.refDigest)
		return st, err
	}
	if err := b.measurePasses(pass, p.records(), p.users()); err != nil {
		return err
	}
	return b.layerProbes(p, func() (stream.Source, error) { return filesSource(p.gz) })
}

// runStudyResident: each pass studies the resident logs of the larger
// dataset through stream.Logs, a user-major source the engine evicts
// from as it goes. The reference is a Workers=1 run made in set-up.
func runStudyResident(b *bench) error {
	p, err := b.setup("small", false, 1, nil)
	if err != nil {
		return err
	}
	pass := func(tr *tracer, parent int) (passStats, error) {
		st := passStats{records: p.records()}
		err := tr.do("engine.run", parent, func(int) error {
			var err error
			st.study, err = runStudy(p.env, logsSource(p.ds), 0, tr != nil)
			return err
		})
		st.verify = verifyStudy(st.study, p.refDigest)
		return st, err
	}
	if err := b.measurePasses(pass, p.records(), p.users()); err != nil {
		return err
	}
	return b.layerProbes(p, func() (stream.Source, error) { return logsSource(p.ds), nil })
}
