package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramErrors(t *testing.T) {
	if _, err := NewLogHistogram(0, 10, 3); err == nil {
		t.Fatal("log histogram with min=0 accepted")
	}
	if _, err := NewLogHistogram(10, 1, 3); err == nil {
		t.Fatal("log histogram with max<min accepted")
	}
	if _, err := NewLogHistogram(1, 10, 0); err == nil {
		t.Fatal("log histogram with zero bins accepted")
	}
	h, _ := NewLogHistogram(1, 10, 3)
	for _, other := range []struct{ min, max float64 }{{1, 100}, {2, 10}} {
		o, _ := NewLogHistogram(other.min, other.max, 3)
		if err := h.Merge(o); err == nil {
			t.Fatalf("merge with range [%g, %g) accepted", other.min, other.max)
		}
	}
	o, _ := NewLogHistogram(1, 10, 4)
	if err := h.Merge(o); err == nil {
		t.Fatal("merge with a different bin count accepted")
	}
	if err := h.Merge(nil); err != nil {
		t.Fatalf("merge with nil: %v", err)
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h, err := NewLogHistogram(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lo, hi := h.BinEdges(i)
		wantLo := math.Pow(10, float64(i))
		wantHi := math.Pow(10, float64(i+1))
		if !almostEq(lo, wantLo, 1e-9*wantLo) || !almostEq(hi, wantHi, 1e-9*wantHi) {
			t.Fatalf("bin %d edges = [%g, %g), want [%g, %g)", i, lo, hi, wantLo, wantHi)
		}
	}
	h.Add(5)
	h.Add(50)
	h.Add(500)
	h.Add(0.1) // saturates low
	h.Add(-3)  // saturates low
	h.Add(1e6) // saturates high
	for i, want := range []int64{3, 1, 2} {
		if h.Count(i) != want {
			t.Fatalf("bin %d count = %d, want %d", i, h.Count(i), want)
		}
	}
}

func TestHistogramFractions(t *testing.T) {
	h, _ := NewLogHistogram(1, 10000, 4)
	for _, v := range []float64{5, 50, 60, 5000} {
		h.Add(v)
	}
	f := h.Fractions()
	if !almostEq(f[0], 0.25, 1e-12) || !almostEq(f[1], 0.5, 1e-12) || f[2] != 0 || !almostEq(f[3], 0.25, 1e-12) {
		t.Fatalf("fractions = %v", f)
	}

	empty, _ := NewLogHistogram(1, 10, 2)
	ef := empty.Fractions()
	if ef[0] != 0 || ef[1] != 0 {
		t.Fatal("empty fractions not 0")
	}
}

// Property: every added value lands in exactly one bin and the total always
// matches the number of Adds — no observation is dropped, even outliers —
// and merging two histograms equals one Add pass over both inputs.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64, cut uint8) bool {
		h, err := NewLogHistogram(0.5, 1e6, 12)
		if err != nil {
			return false
		}
		a, _ := NewLogHistogram(0.5, 1e6, 12)
		b, _ := NewLogHistogram(0.5, 1e6, 12)
		added := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			if added < int(cut) {
				a.Add(v)
			} else {
				b.Add(v)
			}
			added++
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		var sum int64
		for i := 0; i < h.Bins(); i++ {
			sum += h.Count(i)
			if a.Count(i) != h.Count(i) {
				return false
			}
		}
		return sum == int64(added) && h.total == int64(added) && a.total == h.total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
