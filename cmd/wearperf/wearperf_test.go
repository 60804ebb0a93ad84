package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"wearwild/internal/stream"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {10_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, q := range []float64{1, 25, 50, 99, 100} {
		if got := percentile(sorted, q); got != q {
			t.Errorf("percentile(1..100, %g) = %g", q, got)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3, 1, 2) = %g", m)
	}
}

func init() {
	sizes["tiny"] = 20 // a world small enough for unit tests
}

func resultsJSON(t *testing.T, sr studyRun) []byte {
	t.Helper()
	raw, err := json.Marshal(sr.res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTimedSourceTransparent pins that the timing wrapper changes nothing
// the engine computes, and that its counters see every record.
func TestTimedSourceTransparent(t *testing.T) {
	b := &bench{seed: 3, rep: newReport()}
	p, err := b.prepare("tiny", true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := p.records()
	users := int64(p.users())
	sources := []struct {
		name      string
		newSource func() (stream.Source, error)
	}{
		{"logs", func() (stream.Source, error) { return logsSource(p.ds), nil }},
		{"files", func() (stream.Source, error) { return filesSource(p.gz) }},
	}
	for _, sc := range sources {
		name, newSource := sc.name, sc.newSource
		for _, workers := range []int{1, 2} {
			var out [2][]byte
			for i, perRecord := range []bool{false, true} {
				src, err := newSource()
				if err != nil {
					t.Fatal(err)
				}
				sr, err := runStudy(p.env, src, workers, perRecord)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				out[i] = resultsJSON(t, sr)
				if !perRecord {
					continue
				}
				if got := sr.src.sink.records; got != records {
					t.Errorf("%s workers=%d: wrapper counted %d records, dataset has %d", name, workers, got, records)
				}
				wantDones := users
				if name == "files" { // record-major: the engine evicts at the end
					wantDones = 0
				}
				if got := sr.src.sink.dones; got != wantDones {
					t.Errorf("%s workers=%d: wrapper saw %d UserDone calls, want %d", name, workers, got, wantDones)
				}
				if sr.src.sourceSelf() <= 0 || sr.afterSource <= 0 {
					t.Errorf("%s workers=%d: source self %v, after source %v", name, workers, sr.src.sourceSelf(), sr.afterSource)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("%s workers=%d: Results differ with the timing wrapper", name, workers)
			}
		}
	}
}

// TestCollectSmoke drives 200 flows through the live path — client
// aliases, the proxy's Identify and Log hooks, the ground-truth restore,
// the collection-log encoder and the Tail-fed study — and requires every
// check to pass.
func TestCollectSmoke(t *testing.T) {
	b := &bench{seed: 5, rep: newReport()}
	p, err := b.prepare("tiny", false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := p.ds.Proxy.Records
	first := 0
	for first < len(recs) && !p.env.Devices.IsWearable(recs[first].IMEI) {
		first++
	}
	if first+200 > len(recs) {
		t.Fatalf("no 200 flows from the first wearable record on (%d records)", len(recs))
	}
	in, err := buildInputs(recs[first:first+200], b.seed)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := b.live(in, p.env, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.rep.failed != 0 {
		t.Fatalf("%d of %d flows failed", b.rep.failed, b.rep.attempted)
	}
	if err := verifyLive(lr, p.env); err != nil {
		t.Fatal(err)
	}
	if n := len(lr.proxied) + len(lr.direct); n != 200 {
		t.Errorf("replayed %d flows, want 200", n)
	}
	// Every client sends each tenth of its own flows direct.
	if want := 200 / directEvery; len(lr.direct) < want-2 || len(lr.direct) > want {
		t.Errorf("%d direct flows, want about %d", len(lr.direct), want)
	}
	if lr.logged != len(lr.proxied) || lr.study.src.sink.records != int64(len(lr.proxied)) {
		t.Errorf("logged %d and studied %d records for %d proxied flows", lr.logged, lr.study.src.sink.records, len(lr.proxied))
	}
}
