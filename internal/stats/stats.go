// Package stats implements the descriptive statistics the study pipeline
// reports: empirical CDFs, quantiles, histograms, correlation coefficients,
// Shannon entropy and streaming summary accumulators.
//
// The package is deliberately free of any wearwild domain types so that it
// is reusable and trivially property-testable.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates count/mean/variance/min/max in one pass using
// Welford's algorithm. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Merge folds another summary into s.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	d := o.mean - s.mean
	tot := n1 + n2
	s.m2 += o.m2 + d*d*n1*n2/tot
	s.mean += d * n2 / tot
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample. An empty sample yields an ECDF whose
// queries all return 0.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) using nearest-rank; q=0.5 is
// the median.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs suitable for
// plotting the CDF curve.
func (e *ECDF) Points(n int) (xs, ps []float64) {
	m := len(e.sorted)
	if m == 0 || n <= 0 {
		return nil, nil
	}
	if n > m {
		n = m
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		j := (i + 1) * m / n
		if j > m {
			j = m
		}
		xs[i] = e.sorted[j-1]
		ps[i] = float64(j) / float64(m)
	}
	return xs, ps
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns 0 if either sample is constant or shorter than 2.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	var sx, sy Summary
	for i := 0; i < n; i++ {
		sx.Add(x[i])
		sy.Add(y[i])
	}
	if sx.Std() == 0 || sy.Std() == 0 {
		return 0
	}
	var cov float64
	mx, my := sx.Mean(), sy.Mean()
	for i := 0; i < n; i++ {
		cov += (x[i] - mx) * (y[i] - my)
	}
	cov /= float64(n - 1)
	return cov / (sx.Std() * sy.Std())
}

// Spearman returns the Spearman rank correlation of two equal-length
// samples, i.e. the Pearson correlation of their (tie-averaged) ranks.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks returns 1-based ranks with ties assigned their average rank.
func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Entropy returns the Shannon entropy, in bits, of a weight vector. The
// weights need not be normalised; non-positive weights are ignored. A
// single-location vector has entropy 0.
func Entropy(weights []float64) float64 {
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / sum
		h -= p * math.Log2(p)
	}
	if h < 0 { // guard against -0 from rounding
		h = 0
	}
	return h
}
