package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// the benchmark to report it: with fewer, the percentile is one or two
// unlucky samples, not a property of the system.
const minBeyond = 10

// percentile returns the q-quantile of samples (0 < q < 1). The median
// (q = 0.5) is the usual midpoint of the sorted samples and needs only
// one sample. Any other q is the nearest-rank quantile and is refused
// unless at least minBeyond samples lie beyond it: above it for q > 0.5,
// below it for q < 0.5. A failed operation is recorded as +Inf, so it
// counts as a miss for every percentile.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile: q=%g outside (0, 1)", q)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q == 0.5 {
		if n%2 == 1 {
			return sorted[n/2], nil
		}
		return (sorted[n/2-1] + sorted[n/2]) / 2, nil
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if q < 0.5 {
		beyond = rank - 1
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, needs %d",
			100*q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median is percentile(samples, 0.5) for callers that hold at least one
// sample.
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

// acc accumulates the durations (or any other quantity) of one layer.
type acc struct {
	n     int
	total float64
	max   float64
}

func (a *acc) add(v float64) {
	a.n++
	a.total += v
	if v > a.max {
		a.max = v
	}
}

// mean returns the average, 0 for an empty accumulator.
func (a *acc) mean() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return a.total / float64(a.n)
}
