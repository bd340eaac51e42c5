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

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
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

// quartiles returns the first and third quartile of xs by the exclusive
// method, the same values Python's statistics.quantiles(xs, n=4) gives.
// With fewer than two samples both quartiles are that sample (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
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
	return q(1), q(3)
}

// minBeyond is how many samples must rank above a percentile before it is
// reported: a tail percentile read off fewer samples is one outlier wide.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 1)
// and whether it may be reported, i.e. whether at least minBeyond samples
// rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minBeyond
}

// nearestRank is ceil(p·n), tolerant of the rounding in p·n (0.9·110 is
// 99.00000000000001 in float64, which must still rank 99).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// samplesFor returns the smallest sample count at which the p-th
// percentile has minBeyond samples above it.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-nearestRank(p, n) >= minBeyond {
			return n
		}
	}
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
