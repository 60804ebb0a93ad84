// Package figs is the clean map-fold tree: integer map-range folds,
// sorted-key float folds, slice-order folds and per-iteration
// accumulators. Zero findings.
package figs

import "sort"

// Histogram counts per key: integer accumulation is exact in any order.
func Histogram(events map[string][]int) map[string]int {
	out := make(map[string]int, len(events))
	for k, vs := range events {
		out[k] = len(vs)
	}
	return out
}

// WeightedMean folds floats only after sorting the keys.
func WeightedMean(weights map[string]float64) float64 {
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += weights[k]
	}
	if len(keys) == 0 {
		return 0
	}
	return sum / float64(len(keys))
}

// RowMeans folds each map value's slice into a per-iteration local and
// stores the mean under its own key: no cross-iteration fold.
func RowMeans(rows map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(rows))
	for k, vs := range rows {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		if len(vs) > 0 {
			out[k] = s / float64(len(vs))
		}
	}
	return out
}

// SliceMean folds a slice in its fixed order: no map in sight.
func SliceMean(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total / float64(len(vals))
}
