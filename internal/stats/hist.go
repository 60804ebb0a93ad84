package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram with log-spaced bins over a half-open
// value range; values outside the range are counted in saturated edge bins
// so no observation is silently dropped.
type Histogram struct {
	min, max float64
	counts   []int64
	total    int64
}

// NewLogHistogram returns a histogram with log-spaced bins over [min, max);
// both bounds must be positive. Log bins suit transaction sizes, whose
// distribution spans several orders of magnitude.
func NewLogHistogram(min, max float64, bins int) (*Histogram, error) {
	if min <= 0 || max <= min {
		return nil, fmt.Errorf("stats: log histogram needs 0 < min < max, got [%g, %g)", min, max)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin")
	}
	return &Histogram{min: min, max: max, counts: make([]int64, bins)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	h.counts[h.binOf(x)]++
	h.total++
}

func (h *Histogram) binOf(x float64) int {
	if x <= h.min {
		return 0
	}
	n := len(h.counts)
	frac := math.Log(x/h.min) / math.Log(h.max/h.min)
	i := int(frac * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Merge folds another histogram with the identical bin layout into h.
// Bin counts are integer sums, so merging in any order yields exactly the
// histogram a sequential Add pass over both inputs would.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.min != o.min || h.max != o.max || len(h.counts) != len(o.counts) {
		return fmt.Errorf("stats: merging histograms with different bin layouts")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	return nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the observation count of bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// BinEdges returns the [lo, hi) range of bin i.
func (h *Histogram) BinEdges(i int) (lo, hi float64) {
	n := float64(len(h.counts))
	ratio := math.Log(h.max / h.min)
	lo = h.min * math.Exp(ratio*float64(i)/n)
	hi = h.min * math.Exp(ratio*float64(i+1)/n)
	return lo, hi
}

// Fractions returns each bin's share of the total (zero slice if empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}
