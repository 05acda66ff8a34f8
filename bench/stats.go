package main

import (
	"sort"
	"time"
)

// ms is a duration in milliseconds, the unit most metrics are quoted in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportable lists the percentiles the harness may quote, ascending.
var reportable = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile returns the highest reportable percentile that
// still has at least ten of n samples beyond it, and false when even the
// median does not (n < 20).
func supportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range reportable {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, without the rounding
			best, ok = p, true
		}
	}
	return best, ok
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver computes its spreads from. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// timeEach calls fn n times and returns each call's duration in the unit
// given (time.Millisecond, time.Microsecond, ...).
func timeEach(n int, unit time.Duration, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / float64(unit)
	}
	return out
}

// nsPerCall times n back-to-back calls as one interval — for operations
// too short to time one by one.
func nsPerCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
