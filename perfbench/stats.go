package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail read off fewer samples is one slow outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: the smallest k with k/n >= p/100. The tolerance keeps
// p·n/100 from rounding up past an exact integer (99.9% of 10000).
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestTail returns the highest candidate percentile that has at
// least minBeyond samples beyond it at sample count n; ok is false when
// n is too small for even the median.
func highestTail(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of samples (which
// it sorts in place). It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// median is statistics.median: the middle value, or the mean of the two
// middle values. It does not modify values.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(values, n=4) with its
// default 'exclusive' method, so the spreads printed here are the ones
// a reader recomputes with Python. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	md := median(values)
	if md == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(md)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
