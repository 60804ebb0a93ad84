package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("zero summary not neutral")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %g", s.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %g", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
}

// tame clips quick-generated floats to a range where intermediate products
// cannot overflow; the statistics here are not defined for ±MaxFloat64.
func tame(v []float64) []float64 {
	out := v[:0]
	for _, x := range v {
		if math.IsNaN(x) || math.Abs(x) > 1e100 {
			continue
		}
		out = append(out, x)
	}
	return out
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		a, b = tame(a), tame(b)
		var all, s1, s2 Summary
		for _, v := range a {
			all.Add(v)
			s1.Add(v)
		}
		for _, v := range b {
			all.Add(v)
			s2.Add(v)
		}
		s1.Merge(s2)
		if s1.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return almostEq(s1.Mean(), all.Mean(), 1e-6*scale) &&
			almostEq(s1.Var(), all.Var(), 1e-4*(all.Var()+1)) &&
			s1.Min() == all.Min() && s1.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	if e.N() != 5 {
		t.Fatalf("n = %d", e.N())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2.5, 0.4}, {5, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if e.Quantile(0.5) != 3 {
		t.Fatalf("median = %g", e.Quantile(0.5))
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEq(e.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %g", e.Mean())
	}

	empty := NewECDF(nil)
	if empty.At(1) != 0 || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty ECDF not neutral")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(sample []float64, a, b float64) bool {
		if len(sample) == 0 {
			return true
		}
		e := NewECDF(sample)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		pl, ph := e.At(lo), e.At(hi)
		return pl >= 0 && ph <= 1 && pl <= ph
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFQuantileInverseProperty(t *testing.T) {
	f := func(sample []float64, qRaw uint8) bool {
		if len(sample) == 0 {
			return true
		}
		e := NewECDF(sample)
		q := float64(qRaw) / 255
		x := e.Quantile(q)
		// At(x) must reach at least q.
		return e.At(x)+1e-12 >= q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{5, 1, 4, 2, 3})
	xs, ps := e.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("points lengths %d/%d", len(xs), len(ps))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
			t.Fatal("points not monotone")
		}
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("last p = %g", ps[len(ps)-1])
	}
	if xs, ps := e.Points(0); xs != nil || ps != nil {
		t.Fatal("Points(0) should be nil")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yUp := []float64{2, 4, 6, 8, 10}
	yDown := []float64{5, 4, 3, 2, 1}
	if got := Pearson(x, yUp); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect positive = %g", got)
	}
	if got := Pearson(x, yDown); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect negative = %g", got)
	}
	if got := Pearson(x, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("constant series = %g", got)
	}
	if got := Pearson(x, x[:3]); got != 0 {
		t.Fatal("length mismatch should yield 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{1, 8, 27, 64, 125, 216} // monotone but nonlinear
	if got := Spearman(x, y); !almostEq(got, 1, 1e-12) {
		t.Fatalf("spearman of monotone map = %g", got)
	}
	yTies := []float64{1, 1, 2, 2, 3, 3}
	got := Spearman(x, yTies)
	if got < 0.9 {
		t.Fatalf("spearman with ties = %g", got)
	}
}

func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(x, y []float64) bool {
		x, y = tame(x), tame(y)
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		x, y = x[:n], y[:n]
		p := Pearson(x, y)
		s := Spearman(x, y)
		return p >= -1-1e-9 && p <= 1+1e-9 && s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1}); got != 0 {
		t.Fatalf("single location entropy = %g", got)
	}
	if got := Entropy([]float64{1, 1, 1, 1}); !almostEq(got, 2, 1e-12) {
		t.Fatalf("uniform-4 entropy = %g, want 2 bits", got)
	}
	if got := Entropy([]float64{2, 2}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("unnormalised uniform-2 entropy = %g", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Fatalf("empty entropy = %g", got)
	}
	if got := Entropy([]float64{0, -3, 5}); got != 0 {
		t.Fatalf("entropy ignoring non-positive = %g", got)
	}
	// Skewed distribution has lower entropy than uniform.
	if Entropy([]float64{10, 1, 1, 1}) >= Entropy([]float64{1, 1, 1, 1}) {
		t.Fatal("skewed entropy not below uniform")
	}
}
