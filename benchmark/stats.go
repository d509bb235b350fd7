package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it, or 0 when even the median does not
// (n < 20) — a tail read off fewer samples does not repeat.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond is the number of the n sorted samples strictly above the sample
// percentile p reads.
func beyond(n int, p float64) int {
	return n - 1 - rankOf(n, p)
}

// rankOf is the sorted index percentile p reads among n samples
// (nearest-rank).
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tail returns the value at tailPercentile(len(xs)) and that percentile;
// with fewer than 20 samples it returns the maximum, labelled 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	p := tailPercentile(len(s))
	if p == 0 {
		return s[len(s)-1], 100
	}
	return s[rankOf(len(s), p)], p
}

// ratio is a/b, 0 when b is 0 (a rate over nothing observed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
