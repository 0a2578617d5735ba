package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is reported at: the
// highest one with at least minBeyond samples above it is used.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least minBeyond of n samples beyond it, or 100 (the
// maximum) when even the median does not.
func tailPercentile(n int) float64 {
	best := 100.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best = p
		} else {
			break
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	r := int(math.Ceil(p / 100 * float64(len(xs))))
	if r < 1 {
		r = 1
	}
	return xs[r-1]
}

// median returns the median of xs (mean of the middle two for even
// counts), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowTails splits xs into consecutive windows of w samples (one
// shorter window when xs is shorter) and returns each full window's
// tail: its highest percentile with at least minBeyond samples beyond.
func windowTails(xs []float64, w int) []float64 {
	w = min(w, len(xs))
	pct := tailPercentile(w)
	var tails []float64
	for lo := 0; w > 0 && lo+w <= len(xs); lo += w {
		tails = append(tails, percentile(append([]float64(nil), xs[lo:lo+w]...), pct))
	}
	return tails
}

// mean returns the mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
