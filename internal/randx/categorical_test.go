package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCategoricalErrors(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c := MustCategorical(weights)
	r := New(5)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := MustCategorical([]float64{0, 1, 0, 2})
	r := New(9)
	for i := 0; i < 50000; i++ {
		got := c.Sample(r)
		if got == 0 || got == 2 {
			t.Fatalf("sampled zero-weight category %d", got)
		}
	}
}

func TestSampleKDistinct(t *testing.T) {
	c := MustCategorical(ZipfWeights(30, 1.2))
	r := New(21)
	for _, k := range []int{1, 5, 29, 30, 31} {
		got := c.SampleKInto(r, k, nil)
		wantLen := k
		if k > 30 {
			wantLen = 30
		}
		if len(got) != wantLen {
			t.Fatalf("SampleKInto(%d) returned %d items", k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 30 {
				t.Fatalf("SampleKInto produced out-of-range index %d", v)
			}
			if seen[v] {
				t.Fatalf("SampleKInto(%d) produced duplicate %d", k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKBiasTowardHeavy(t *testing.T) {
	// Rank 0 has weight far above rank 29, so it should nearly always be in
	// a small sample.
	weights := make([]float64, 30)
	for i := range weights {
		weights[i] = math.Pow(0.6, float64(i))
	}
	c := MustCategorical(weights)
	r := New(23)
	hit := 0
	const trials = 2000
	var got []int
	for i := 0; i < trials; i++ {
		got = c.SampleKInto(r, 3, got)
		for _, v := range got {
			if v == 0 {
				hit++
			}
		}
	}
	if frac := float64(hit) / trials; frac < 0.70 {
		t.Fatalf("heaviest category present in only %.2f of samples", frac)
	}
}

// Property: the alias table construction never panics and sampling stays in
// range for arbitrary positive weight vectors.
func TestCategoricalProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				any = true
			}
		}
		if !any {
			weights[0] = 1
		}
		c, err := NewCategorical(weights)
		if err != nil {
			return false
		}
		r := New(99)
		for i := 0; i < 64; i++ {
			got := c.Sample(r)
			if got < 0 || got >= len(weights) {
				return false
			}
			if weights[got] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
