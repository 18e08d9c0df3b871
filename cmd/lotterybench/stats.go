package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest rank of the p-th percentile of n samples:
// ceil(p*n/100), in integer arithmetic so p=99, n=1000 gives exactly 990.
func rank(n, p int) int {
	return max((p*n+99)/100, 1)
}

// percentile returns the nearest-rank p-th percentile: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile. A percentile is worth reporting only with at least 10.
func beyond(n, p int) int {
	return n - rank(n, p)
}

// quartiles returns the first and third quartiles by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// digestOf returns the short hex SHA-256 digest of b that results pin.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
