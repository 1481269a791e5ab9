package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank p-quantile of xs (0 for an empty slice).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest of p99 and p90 that has at least ten samples beyond
// it; with fewer than 100 samples it falls back to p90 and the record
// states the sample count.
func tail(xs []float64) (value float64, percentile int) {
	if float64(len(xs))*0.01 >= 10 {
		return quantile(xs, 0.99), 99
	}
	return quantile(xs, 0.90), 90
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d float64) float64 { return d / 1e6 }
