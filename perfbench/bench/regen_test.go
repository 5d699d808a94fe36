package bench

import (
	"runtime"
	"sort"
	"testing"

	"power5prio"
)

func TestFastestJobMsTakesEachMeasurementsMinimum(t *testing.T) {
	a, b := power5prio.Spec{A: "cpu_int"}, power5prio.Spec{A: "cpu_fp"}
	sweeps := []Sweep{
		{Answers: []Answer{{Spec: a}, {Spec: b}}, JobMs: []float64{5, 9}},
		{Answers: []Answer{{Spec: b}, {Spec: a}}, JobMs: []float64{7, 6}}, // another submission order
	}
	got := fastestJobMs(sweeps)
	sort.Float64s(got)
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("fastestJobMs = %v, want [5 7]", got)
	}
}

func TestOnEachCPUVisitsEveryProcessor(t *testing.T) {
	calls := 0
	got, err := OnEachCPU(func() float64 { calls++; return float64(calls) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != calls || calls < 1 || calls > runtime.NumCPU() {
		t.Fatalf("OnEachCPU ran %d times and returned %v on %d processors", calls, got, runtime.NumCPU())
	}
}
