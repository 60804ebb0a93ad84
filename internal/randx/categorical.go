package randx

import (
	"fmt"
	"slices"
)

// Categorical samples indices in proportion to a fixed weight vector in
// O(1) per draw using Vose's alias method. Building the table is O(n).
//
// A Categorical is immutable after construction and safe for concurrent use
// with distinct Rand streams.
type Categorical struct {
	prob  []float64
	alias []int
}

// NewCategorical builds an alias table for the given non-negative weights.
// At least one weight must be positive.
func NewCategorical(weights []float64) (*Categorical, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("randx: categorical needs at least one weight")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("randx: negative weight %g at index %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("randx: all weights are zero")
	}

	c := &Categorical{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities: mean 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small { // numerical leftovers
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c, nil
}

// MustCategorical is NewCategorical for static weight tables known to be
// valid; it panics on error.
func MustCategorical(weights []float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.prob) }

// Sample draws one index using the provided stream.
func (c *Categorical) Sample(r *Rand) int {
	i := r.IntN(len(c.prob))
	if r.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}

// SampleKInto draws k distinct indices, weighted without replacement, into
// dst's backing array, which it reuses. It is O(k) draws in the common case
// and falls back to a scan in index order when the draws keep repeating or
// k approaches the category count. Duplicates are found by a linear scan of
// the result, since k is small wherever this is hot.
func (c *Categorical) SampleKInto(r *Rand, k int, dst []int) []int {
	n := len(c.prob)
	if k >= n {
		dst = slices.Grow(dst[:0], n)[:n]
		for i := range dst {
			dst[i] = i
		}
		return dst
	}
	out := dst[:0]
	attempts := 0
	for len(out) < k && attempts < 12*k {
		i := c.Sample(r)
		attempts++
		if containsIndex(out, i) {
			continue
		}
		out = append(out, i)
	}
	for i := 0; len(out) < k && i < n; i++ {
		if !containsIndex(out, i) {
			out = append(out, i)
		}
	}
	return out
}

func containsIndex(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
