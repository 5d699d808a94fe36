// Package bench holds the repository benchmark's workloads, its
// arithmetic (percentiles, spreads, span self time) and its report
// format. It uses only the public power5prio API and the commit's own
// command binaries, so the end-to-end numbers never depend on an
// internal package; the traced per-layer run (cmd/layers) builds on it.
package bench

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail timing may be reported
// at, highest first. The highest one with at least minBeyond samples
// beyond it is chosen, so a run with few samples reports a lower
// percentile instead of an extrapolated maximum. It stops at p99: a
// longer run then keeps reporting the same percentile instead of
// jumping to p99.9 once it crosses ten thousand samples.
var tailLadder = []float64{99, 95, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// TailPercentile returns the highest percentile in the ladder with at
// least ten of n samples beyond it, or 50 when none qualifies.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// Percentile returns the nearest-rank percentile p of sorted samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// Dist summarizes a latency sample: its median and its tail at the
// percentile TailPercentile chose for the sample count.
type Dist struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// Summarize sorts a copy of xs and returns its median and tail.
func Summarize(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := TailPercentile(len(s))
	return Dist{N: len(s), P50: Median(s), TailP: p, Tail: Percentile(s, p)}
}

// Median returns the median of xs (the mean of the middle two for an
// even count), NaN when empty.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// MidMean is the mean of the middle half of xs: the values left after
// dropping the lowest and the highest quarter. Like a median it ignores
// outliers; unlike a median of counts it is not limited to whole
// numbers, so two runs rarely read exactly alike.
func MidMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns with its default exclusive
// method, so the benchmark's own spread figures match the ones the
// steadiness check computes. It needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		v := math.NaN()
		if m == 1 {
			v = s[0]
		}
		return v, v, v
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread returns the interquartile distance of xs as a share of its
// median: the steadiness figure each end-to-end metric is held to.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
