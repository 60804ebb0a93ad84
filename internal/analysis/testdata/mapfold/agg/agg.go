// Package agg seeds maporder's fold rule: float folds over randomized
// map iteration in every accumulation spelling, next to the clean
// spellings that fold in a canonical order or reset every iteration.
package agg

import "sort"

// MapFold folds floats in map-iteration order: a different sum every
// run.
func MapFold(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want maporder
	}
	return sum
}

// MapFoldSpelledOut uses the x = x + e spelling: same fold, same
// finding.
func MapFoldSpelledOut(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want maporder
	}
	return sum
}

// MapFoldSub subtracts in map-iteration order: the op-assign rule is
// not limited to +=.
func MapFoldSub(m map[string]float64) float64 {
	balance := 100.0
	for _, v := range m {
		balance -= v // want maporder
	}
	return balance
}

// MapFoldInc counts with a float: x++ is a fold step too.
func MapFoldInc(m map[string]bool) float64 {
	var n float64
	for _, on := range m {
		if on {
			n++ // want maporder
		}
	}
	return n
}

// MapFoldLiteral folds from a func literal inside the range: the
// literal runs once per iteration, in iteration order.
func MapFoldLiteral(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		func() {
			sum += v // want maporder
		}()
	}
	return sum
}

// MapFoldThenSort sorts the keys it collects, which silences the emit
// rule for the append, but the float sum was already folded in
// iteration order: the fold rule still fires.
func MapFoldThenSort(m map[string]float64) ([]string, float64) {
	keys := make([]string, 0, len(m))
	var sum float64
	for k, v := range m {
		keys = append(keys, k)
		sum += v // want maporder
	}
	sort.Strings(keys)
	return keys, sum
}

// meter is float state that outlives the call.
type meter struct {
	total float64
}

// observeAll folds into its receiver's field in map-iteration order.
func (mt *meter) observeAll(m map[string]float64) {
	for _, v := range m {
		mt.total += v // want maporder
	}
}

// NestedRange folds into an accumulator declared inside the outer map
// range but outside the inner one: the innermost range decides.
func NestedRange(m map[string]map[string]float64) int {
	count := 0
	for _, inner := range m {
		rowSum := 0.0
		for _, v := range inner {
			rowSum += v // want maporder
		}
		if rowSum > 1 {
			count++
		}
	}
	return count
}

// SortedFold collects and sorts the keys first: the canonical-order
// spelling the diagnostic recommends.
func SortedFold(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// IntFold sums integers over the map range: exact in any order, clean.
func IntFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// MaxOver keeps a running maximum: order-independent, not a fold.
func MaxOver(m map[string]float64) float64 {
	best := 0.0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// PerIterationLocal accumulates into a variable declared inside the
// range body: it resets every iteration, so no cross-iteration fold.
func PerIterationLocal(m map[string][]float64) int {
	count := 0
	for _, vs := range m {
		rowSum := 0.0
		for _, v := range vs {
			rowSum += v
		}
		if rowSum > 1 {
			count++
		}
	}
	return count
}
