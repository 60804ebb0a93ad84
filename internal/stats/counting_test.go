package stats

import (
	"math"
	"math/rand"
	"testing"
)

// expand builds the reference slice-backed ECDF from the same multiset.
func expandCounting(c *CountingECDF) *ECDF {
	var sample []float64
	c.refresh()
	for _, v := range c.keys {
		for k := int64(0); k < c.counts[v]; k++ {
			sample = append(sample, float64(v))
		}
	}
	return NewECDF(sample)
}

// TestCountingECDFMatchesECDF is the property test: every query the study
// uses must reproduce the slice-backed ECDF bit for bit.
func TestCountingECDFMatchesECDF(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		c := NewCountingECDF()
		n := r.Intn(3000)
		for i := 0; i < n; i++ {
			// Log-spread integer values with heavy duplication, like
			// transaction byte sizes.
			v := int64(r.Intn(1 << uint(3+r.Intn(18))))
			c.Add(v)
		}
		e := expandCounting(c)
		if int64(e.N()) != c.N() {
			t.Fatalf("trial %d: N %d vs %d", trial, e.N(), c.N())
		}
		if n == 0 {
			continue
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.8, 0.9, 0.99, 1} {
			if got, want := c.Quantile(q), e.Quantile(q); got != want {
				t.Fatalf("trial %d: Quantile(%g) %v vs %v", trial, q, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			x := float64(r.Intn(1 << 20))
			if got, want := c.At(x), e.At(x); got != want {
				t.Fatalf("trial %d: At(%g) %v vs %v", trial, x, got, want)
			}
		}
		if got, want := c.Mean(), e.Mean(); got != want {
			t.Fatalf("trial %d: Mean %v vs %v", trial, got, want)
		}
		for _, pts := range []int{1, 7, 50, 200, 5000} {
			gx, gp := c.Points(pts)
			wx, wp := e.Points(pts)
			if len(gx) != len(wx) {
				t.Fatalf("trial %d: Points(%d) len %d vs %d", trial, pts, len(gx), len(wx))
			}
			for i := range gx {
				if gx[i] != wx[i] || gp[i] != wp[i] {
					t.Fatalf("trial %d: Points(%d)[%d] (%v,%v) vs (%v,%v)",
						trial, pts, i, gx[i], gp[i], wx[i], wp[i])
				}
			}
		}
	}
}

// TestCountingECDFMergeOrderFree: merging partial accumulators in any order
// yields identical queries — the §7 exact-merge contract.
func TestCountingECDFMergeOrderFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	shards := make([]*CountingECDF, 8)
	for i := range shards {
		shards[i] = NewCountingECDF()
		for j := 0; j < 500; j++ {
			shards[i].Add(int64(r.Intn(1000)))
		}
	}
	fold := func(order []int) *CountingECDF {
		out := NewCountingECDF()
		for _, i := range order {
			out.Merge(shards[i])
		}
		return out
	}
	a := fold([]int{0, 1, 2, 3, 4, 5, 6, 7})
	b := fold([]int{7, 3, 5, 1, 6, 0, 2, 4})
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Fatal("merge order changed N or Mean")
	}
	ax, ap := a.Points(100)
	bx, bp := b.Points(100)
	for i := range ax {
		if ax[i] != bx[i] || ap[i] != bp[i] {
			t.Fatalf("merge order changed Points at %d", i)
		}
	}
}

func TestCountingECDFEmpty(t *testing.T) {
	c := NewCountingECDF()
	if c.N() != 0 || c.Mean() != 0 || c.At(5) != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty accumulator queries must return 0")
	}
	if xs, ps := c.Points(10); xs != nil || ps != nil {
		t.Fatal("empty accumulator Points must be nil")
	}
}

// TestLogQuantize pins the quantizer's contract: exact below the
// precision threshold, floor semantics with bounded relative error above
// it, idempotence (grid values are fixed points), and monotonicity (the
// quantile order of any sample survives quantization).
func TestLogQuantize(t *testing.T) {
	const sig = 10
	rng := rand.New(rand.NewSource(7))
	prevV, prevQ := int64(-1), int64(-1)
	for i := 0; i < 200000; i++ {
		v := int64(rng.Uint64() >> uint(1+rng.Intn(40))) // spread magnitudes
		q := LogQuantize(v, sig)
		if v < 1<<sig && q != v {
			t.Fatalf("LogQuantize(%d) = %d, want exact below 2^%d", v, q, sig)
		}
		if q > v || (v > 0 && float64(v-q) >= float64(v)*math.Pow(2, 1-sig)) {
			t.Fatalf("LogQuantize(%d) = %d: floor bound violated", v, q)
		}
		if again := LogQuantize(q, sig); again != q {
			t.Fatalf("not idempotent: %d -> %d -> %d", v, q, again)
		}
		if prevV >= 0 && ((v >= prevV) != (q >= prevQ)) && q != prevQ {
			t.Fatalf("order flip: %d<->%d quantized to %d<->%d", prevV, v, prevQ, q)
		}
		prevV, prevQ = v, q
	}
	if got := LogQuantize(0, sig); got != 0 {
		t.Fatalf("LogQuantize(0) = %d", got)
	}
	if got := LogQuantize(-5, sig); got != -5 {
		t.Fatalf("negative values must pass through, got %d", got)
	}
}
