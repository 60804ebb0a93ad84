package wearwild

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"wearwild/internal/core"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

var (
	eqOnce sync.Once
	eqDS   *Dataset
	eqErr  error
)

// eqDataset generates the shared equivalence-test dataset once.
func eqDataset(t *testing.T) *Dataset {
	t.Helper()
	eqOnce.Do(func() {
		eqDS, eqErr = Generate(SmallConfig(42))
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqDS
}

// runWith executes the study at one Workers setting and returns the
// Results plus their canonical JSON serialisation.
func runWith(t *testing.T, ds *Dataset, workers int) (*Results, []byte) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	res, err := RunStudyWith(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// TestParallelEquivalence is the determinism gate of the shard-and-merge
// pipeline: the Results tree must be deeply equal AND serialise to
// byte-identical JSON at every worker bound, against the fully sequential
// Workers=1 path. Any scheduling-dependent float or ordering difference
// fails here.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds := eqDataset(t)
	refRes, refJSON := runWith(t, ds, 1)

	// 3 gives workers uneven shard counts (32 % 3 != 0); 64 clamps to
	// one worker per shard.
	for _, workers := range []int{1, 2, 3, 8, 64} {
		res, raw := runWith(t, ds, workers)
		if !reflect.DeepEqual(refRes, res) {
			t.Errorf("workers=%d: Results not deeply equal to sequential run", workers)
		}
		if string(raw) != string(refJSON) {
			i := 0
			for i < len(raw) && i < len(refJSON) && raw[i] == refJSON[i] {
				i++
			}
			lo := max(i-80, 0)
			hi := min(i+80, len(raw))
			t.Errorf("workers=%d: JSON diverges at byte %d: …%s…", workers, i, raw[lo:hi])
		}
	}
}

// TestParallelEquivalenceRepeatedRuns re-runs the same parallel study
// over one dataset: the pipeline must not mutate shared state between
// runs.
func TestParallelEquivalenceRepeatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds := eqDataset(t)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	first, err := core.RunDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := core.RunDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatal("two runs over one dataset differ")
	}
}

// TestParallelEquivalenceReaders is the record-major counterpart: a
// stream.Readers source over the saved encodings never calls UserDone,
// so every subscriber is evicted when the engine seals, each worker
// sealing its own shards, and every worker's last batch is a partial one.
// The reference is the same source at Workers=1, not the in-memory
// Results: the MME CSV drops sub-second times, so a study of the saved
// logs differs from one of the generated logs in Fig 4(c).
func TestParallelEquivalenceReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
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
	env := core.Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}
	run := func(workers int) []byte {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		src := &stream.Readers{
			ProxyBinary: bytes.NewReader(prx.Bytes()),
			MMECSV:      bytes.NewReader(mm.Bytes()),
			UDRCSV:      bytes.NewReader(ud.Bytes()),
		}
		res, err := core.RunStream(env, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 64} {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: Readers Results differ from Workers=1 over the same encodings", workers)
		}
	}
}
