package wearwild

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"wearwild/internal/core"
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

	for _, workers := range []int{1, 2, 8} {
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
