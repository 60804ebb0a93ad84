package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the trace
// began; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name; fn gets the span's id, the parent
// of any spans it opens.
func (t *tracer) do(name string, parent int, fn func(id int) error) error {
	_, err := t.timed(name, parent, fn)
	return err
}

// timed is do that also returns how long fn took.
func (t *tracer) timed(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id := t.begin(name, parent)
	defer t.end(id)
	t0 := time.Now()
	err := fn(id)
	return time.Since(t0), err
}

// selfTimes returns, per span name, the number of spans and their summed
// self time: each span's duration minus the part its children cover.
// Children of one span never overlap, because the benchmark calls layers
// one after another.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][2]float64)
	for _, s := range t.spans {
		v := out[s.Name]
		v[0]++
		v[1] += float64(s.End-s.Start-child[s.ID]) / 1e6
		out[s.Name] = v
	}
	return out
}

// printSelfTimes writes the self-time table, sorted by name.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span self times (spans written to the -spans file)\n")
	for _, n := range names {
		fmt.Fprintf(w, "span %-28s n=%-5d self_ms=%.3f\n", n, int(st[n][0]), st[n][1])
	}
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timedSource sits between a record source and core.RunStream. It always
// stamps when the source starts and stops streaming, which splits a study
// into ingest and what follows the last record. With perRecord set it
// also wraps the sink and counts the time spent inside each sink call;
// per-record calls go into these counters, never into spans.
//
// The clock is a closure handed in by the benchmark, not a time call in
// these methods: the engine calls Stream and the Sink methods from the
// deterministic pipeline, and wall-clock reads must stay outside what
// that pipeline can reach (wearlint's detreach).
type timedSource struct {
	src       stream.Source
	perRecord bool
	clock     func() time.Duration

	begin, end time.Duration
	sink       timedSink
}

// newTimedSource wraps src with a clock reading the time since now.
func newTimedSource(src stream.Source, perRecord bool) *timedSource {
	base := time.Now()
	return &timedSource{src: src, perRecord: perRecord, clock: func() time.Duration { return time.Since(base) }}
}

// Stream implements stream.Source.
func (t *timedSource) Stream(sink stream.Sink) error {
	t.begin = t.clock()
	defer func() { t.end = t.clock() }()
	if !t.perRecord {
		return t.src.Stream(sink)
	}
	t.sink = timedSink{inner: sink, clock: t.clock}
	return t.src.Stream(&t.sink)
}

// sourceSelf is the source's own time: streaming minus time in the sink.
func (t *timedSource) sourceSelf() time.Duration {
	return t.end - t.begin - t.sink.ingest - t.sink.userDone
}

// timedSink forwards every call to the engine's sink and times it.
type timedSink struct {
	inner    stream.Sink
	clock    func() time.Duration
	records  int64 // Proxy, MME and UDR calls
	dones    int64 // UserDone calls
	userDone time.Duration
	ingest   time.Duration
}

func (s *timedSink) Proxy(r proxylog.Record) error {
	t0 := s.clock()
	err := s.inner.Proxy(r)
	s.ingest += s.clock() - t0
	s.records++
	return err
}

func (s *timedSink) MME(r mme.Record) error {
	t0 := s.clock()
	err := s.inner.MME(r)
	s.ingest += s.clock() - t0
	s.records++
	return err
}

func (s *timedSink) UDR(r udr.Record) error {
	t0 := s.clock()
	err := s.inner.UDR(r)
	s.ingest += s.clock() - t0
	s.records++
	return err
}

func (s *timedSink) UserDone(imsi subs.IMSI) error {
	t0 := s.clock()
	err := s.inner.UserDone(imsi)
	s.userDone += s.clock() - t0
	s.dones++
	return err
}
