package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be trusted (choosing-metrics guide §1).
const minBeyond = 10

// percentile returns the p-quantile (0..1) of sorted by nearest rank, the rule
// cmd/hyperm-load uses, so numbers stay comparable with the old artifacts.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// beyond counts the samples strictly above the nearest-rank p-quantile slot.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(p*float64(n-1))
}

// tailPercentile picks the highest of the candidate percentiles that leaves at
// least minBeyond samples beyond it; ok is false when none does.
func tailPercentile(n int, candidates []float64) (p float64, ok bool) {
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && c > p {
			p, ok = c, true
		}
	}
	return p, ok
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), which is what the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies accumulates one op class's durations in milliseconds.
type latencies []float64

func (l latencies) p(q float64) float64 { return percentile(sortedCopy(l), q) }
