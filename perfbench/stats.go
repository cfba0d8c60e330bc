package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0 for
// an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) without reordering the caller's slice.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
