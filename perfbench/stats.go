package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a tail figure resting on fewer
// samples says more about the one run than about the system.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-quantile
// (0 < p <= 1) in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of an ascending sample
// and whether at least minBeyond samples lie beyond it. An empty sample
// has no percentile.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := rank(n, p)
	return sorted[r-1], n-r >= minBeyond
}

// median returns the nearest-rank median of an unsorted sample (0 when
// empty). The median needs no tail support.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	v, _ := percentile(s, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when there is nothing to divide.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
