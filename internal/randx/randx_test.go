package randx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/64 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	// Splitting children must not depend on parent consumption order.
	c1 := root.Split("traffic", 10)
	_ = root.Float64() // consume parent
	c1again := New(7).Split("traffic", 10)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatalf("split stream not stable under parent consumption (draw %d)", i)
		}
	}
}

func TestSplitKeysDistinct(t *testing.T) {
	root := New(7)
	a := root.Split("traffic", 10)
	b := root.Split("traffic", 11)
	c := root.Split("mobility", 10)
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av == bv || av == cv || bv == cv {
		t.Fatalf("split streams with distinct keys collided: %x %x %x", av, bv, cv)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(11)
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormalMedian(3000, 1.0)
	}
	med := median(vals)
	if med < 2700 || med > 3300 {
		t.Fatalf("lognormal median = %.0f, want ~3000", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(13)
	const n = 50000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 1.5)
		if v < 1 {
			t.Fatalf("pareto below xm: %g", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.5 ≈ 0.0316.
	frac := float64(over) / n
	if frac < 0.02 || frac > 0.045 {
		t.Fatalf("pareto tail mass P(X>10) = %.4f, want ≈0.0316", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.06*mean+0.05 {
			t.Fatalf("poisson(%g) sample mean = %.3f", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("poisson of non-positive mean must be 0")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1)
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v >= w[i-1] {
			t.Fatalf("weights not decreasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
	if got := w[0] / w[1]; math.Abs(got-2) > 1e-12 {
		t.Fatalf("rank ratio = %g, want 2", got)
	}
	if ZipfWeights(0, 1) != nil {
		t.Fatal("ZipfWeights(0) should be nil")
	}
}

// Property: ZipfWeights is a valid simplex for any size and shape in range.
func TestWeightsSimplexProperty(t *testing.T) {
	f := func(n uint8, s uint8) bool {
		size := int(n%50) + 1
		shape := 0.1 + float64(s%30)/10
		var sum float64
		for _, v := range ZipfWeights(size, shape) {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestPermIntoMatchesPerm pins PermInto's contract: same permutation and
// same post-call stream state as Perm, with the slab reused across calls.
func TestPermIntoMatchesPerm(t *testing.T) {
	var slab []int
	for n := 0; n < 40; n++ {
		a := New(7).Split("perm", uint64(n))
		b := New(7).Split("perm", uint64(n))
		want := a.Perm(n)
		slab = b.PermInto(slab, n)
		if len(want) != len(slab) {
			t.Fatalf("n=%d: lengths differ: %d vs %d", n, len(want), len(slab))
		}
		for i := range want {
			if want[i] != slab[i] {
				t.Fatalf("n=%d: element %d differs: %d vs %d", n, i, want[i], slab[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: stream state diverged after permuting", n)
		}
	}
}
