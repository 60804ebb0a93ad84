package stats

import (
	"math"
	"math/bits"
	"sort"
)

// LogQuantize rounds v down to its top sig significant bits: values below
// 2^sig pass through exactly, larger ones keep a fixed-precision mantissa
// (relative error < 2^(1-sig)). The image is a log-spaced grid with at
// most 2^sig + 62*2^(sig-1) distinct values over the whole int64 range,
// which turns a CountingECDF over near-continuous observations (e.g.
// lognormal transaction sizes) from O(distinct samples) into O(grid):
// genuinely bounded by the value domain, never by the record count. Pure
// integer math on the value alone, so every worker and source quantizes
// identically and §7 exact-merge equivalence is untouched.
func LogQuantize(v int64, sig uint) int64 {
	if v <= 0 || sig == 0 {
		return v
	}
	if n := uint(bits.Len64(uint64(v))); n > sig {
		shift := n - sig
		return v >> shift << shift
	}
	return v
}

// CountingECDF is an exact empirical CDF over integer-valued observations,
// stored as per-value counts instead of one slot per sample. Memory is
// bounded by the number of DISTINCT values (the value domain), not the
// record count, which is what makes it legal inside the streaming study
// engine's per-worker partials. Merging is a plain count-map union, so the
// result is independent of merge order and worker count.
//
// Queries reproduce an ECDF built from the expanded multiset bit for bit
// as long as every value (and the running total for Mean) stays below
// 2^53, where int64 arithmetic and float64 arithmetic agree; transaction
// byte counts are far below that. The property test pins the equivalence.
type CountingECDF struct {
	counts map[int64]int64
	n      int64

	// query cache: sorted distinct values and cumulative counts, rebuilt
	// lazily after any Add/Merge.
	keys  []int64
	cum   []int64
	dirty bool
}

// NewCountingECDF returns an empty accumulator.
func NewCountingECDF() *CountingECDF {
	return &CountingECDF{counts: make(map[int64]int64)}
}

// Add counts one observation.
func (c *CountingECDF) Add(v int64) {
	c.counts[v]++
	c.n++
	c.dirty = true
}

// Merge folds another accumulator into c. Union of count maps: exact and
// commutative, per the DESIGN §7 merge rules.
func (c *CountingECDF) Merge(o *CountingECDF) {
	for v, k := range o.counts {
		c.counts[v] += k
	}
	c.n += o.n
	c.dirty = true
}

// N returns the number of observations.
func (c *CountingECDF) N() int64 { return c.n }

func (c *CountingECDF) refresh() {
	if !c.dirty && c.keys != nil {
		return
	}
	c.keys = c.keys[:0]
	for v := range c.counts {
		c.keys = append(c.keys, v)
	}
	sort.Slice(c.keys, func(i, j int) bool { return c.keys[i] < c.keys[j] })
	c.cum = c.cum[:0]
	var run int64
	for _, v := range c.keys {
		run += c.counts[v]
		c.cum = append(c.cum, run)
	}
	c.dirty = false
}

// At returns P(X <= x), matching ECDF.At on the expanded multiset.
func (c *CountingECDF) At(x float64) float64 {
	if c.n == 0 {
		return 0
	}
	c.refresh()
	// First key strictly above x; everything before it is <= x.
	i := sort.Search(len(c.keys), func(i int) bool { return float64(c.keys[i]) > x })
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.n)
}

// Quantile returns the q-quantile using the same nearest-rank rule as
// ECDF.Quantile.
func (c *CountingECDF) Quantile(q float64) float64 {
	if c.n == 0 {
		return 0
	}
	c.refresh()
	if q <= 0 {
		return float64(c.keys[0])
	}
	if q >= 1 {
		return float64(c.keys[len(c.keys)-1])
	}
	rank := int64(math.Ceil(q*float64(c.n))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(c.valueAtRank(rank))
}

// valueAtRank returns the 0-based rank'th value of the sorted multiset.
func (c *CountingECDF) valueAtRank(rank int64) int64 {
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > rank })
	return c.keys[i]
}

// Mean returns the sample mean. The total is accumulated in int64, which
// equals the float64 running sum of the expanded multiset exactly while
// the total stays below 2^53.
func (c *CountingECDF) Mean() float64 {
	if c.n == 0 {
		return 0
	}
	c.refresh()
	var sum int64
	for _, v := range c.keys {
		sum += v * c.counts[v]
	}
	return float64(sum) / float64(c.n)
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs, matching
// ECDF.Points on the expanded multiset.
func (c *CountingECDF) Points(n int) (xs, ps []float64) {
	m := c.n
	if m == 0 || n <= 0 {
		return nil, nil
	}
	if int64(n) > m {
		n = int(m)
	}
	c.refresh()
	xs = make([]float64, n)
	ps = make([]float64, n)
	ki := 0 // rank cursor into keys/cum; j below is non-decreasing
	for i := 0; i < n; i++ {
		j := (int64(i) + 1) * m / int64(n)
		if j > m {
			j = m
		}
		for c.cum[ki] < j {
			ki++
		}
		xs[i] = float64(c.keys[ki])
		ps[i] = float64(j) / float64(m)
	}
	return xs, ps
}
