package bench

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		got := TailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got != 50 && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("TailPercentile(%d) = %g leaves %d samples beyond it", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	d := Summarize(xs)
	if d.N != 200 || d.TailP != 95 || d.Tail != 190 || d.P50 != 100.5 {
		t.Fatalf("Summarize = %+v, want n=200 p95=190 p50=100.5", d)
	}
	if xs[0] != 200 {
		t.Fatal("Summarize sorted its input in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPaperMAEIsOrderIndependent(t *testing.T) {
	got := IPCs{
		ST:  map[string]float64{"cpu_int": 1.24, "br_miss": 9}, // br_miss is not in Table 3
		SMT: map[[2]string][2]float64{{"cpu_int", "cpu_fp"}: {0.55, 1.16}},
	}
	mae, n := PaperMAE(got)
	if n != 3 || math.Abs(mae-0.1) > 1e-12 {
		t.Fatalf("PaperMAE = %g over %d, want 0.1 over 3", mae, n)
	}
	if _, n := PaperMAE(IPCs{}); n != 0 {
		t.Fatalf("PaperMAE of nothing compared %d values", n)
	}
}

func TestMidMeanDropsQuarters(t *testing.T) {
	if got := MidMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("MidMean = %g, want mean of 2..5 = 3.5", got)
	}
	if got := MidMean([]float64{7}); got != 7 {
		t.Errorf("MidMean of one value = %g", got)
	}
}

func TestWindowRatesTakeMiddleWholeWindows(t *testing.T) {
	rec := func(done time.Duration, specs int) QueryRecord {
		return QueryRecord{Done: done, Specs: specs, Cycles: float64(100 * specs)}
	}
	records := []QueryRecord{
		rec(100*time.Millisecond, 2), rec(900*time.Millisecond, 2), // window 0: 2 queries, 4 specs
		rec(1500*time.Millisecond, 1),                                                               // window 1: a stall
		rec(2100*time.Millisecond, 1), rec(2200*time.Millisecond, 3), rec(2300*time.Millisecond, 1), // window 2
		rec(3100*time.Millisecond, 3), rec(3900*time.Millisecond, 3), // window 3: 2 queries, 6 specs
		rec(4100*time.Millisecond, 8), // past the last whole window: dropped
	}
	// Four windows: the middle half drops the lowest and highest one.
	r := WindowRates(records, 4200*time.Millisecond, time.Second)
	if r.Windows != 4 || r.Queries != 2 || r.Specs != 4.5 || r.Cycles != 450 {
		t.Fatalf("WindowRates = %+v, want 4 windows and middle-half rates of 2 queries, 4.5 specs, 450 cycles", r)
	}
	short := WindowRates(records[:2], 500*time.Millisecond, time.Second)
	if short.Windows != 0 || short.Queries != 4 || short.Specs != 8 {
		t.Fatalf("WindowRates under one window = %+v, want whole-run rates 4 and 8 per second", short)
	}
}

func TestMaxDeviation(t *testing.T) {
	if got := MaxDeviation([]float64{9, 10, 10, 12}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MaxDeviation = %g, want |12-10|/10 = 0.2", got)
	}
}
