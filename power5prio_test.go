package power5prio

import (
	"context"
	"testing"
)

// quickSystem returns a System with reduced measurement effort for tests.
func quickSystem() *System {
	return New(DefaultConfig(), WithMeasureOptions(
		MeasureOptions{MinReps: 3, WarmupReps: 1, MaxCycles: 60_000_000}))
}

func TestCatalogues(t *testing.T) {
	if got := len(Microbenchmarks()); got != 15 {
		t.Errorf("Microbenchmarks() = %d entries, want 15", got)
	}
	if got := len(SPECWorkloads()); got != 4 {
		t.Errorf("SPECWorkloads() = %d entries, want 4", got)
	}
}

func TestPriorityHelpers(t *testing.T) {
	if R(4) != 32 {
		t.Errorf("R(4) = %d, want 32", R(4))
	}
	if Share(0) != 0.5 {
		t.Errorf("Share(0) = %v, want 0.5", Share(0))
	}
	if !Permitted(Medium, User) || Permitted(High, User) {
		t.Error("Permitted does not follow Table 1")
	}
	reg, ok := OrNopRegister(VeryLow)
	if !ok || reg != 31 {
		t.Errorf("OrNopRegister(VeryLow) = (%d,%v), want (31,true)", reg, ok)
	}
	if l, ok := DecodeOrNop(31); !ok || l != VeryLow {
		t.Errorf("DecodeOrNop(31) = (%v,%v)", l, ok)
	}
}

func TestBuildWorkloads(t *testing.T) {
	if _, err := Microbenchmark("cpu_int"); err != nil {
		t.Errorf("Microbenchmark(cpu_int): %v", err)
	}
	if _, err := Microbenchmark("nope"); err == nil {
		t.Error("Microbenchmark accepted unknown name")
	}
	if _, err := SPECWorkload("mcf"); err != nil {
		t.Errorf("SPECWorkload(mcf): %v", err)
	}
	if _, err := SPECWorkload("nope"); err == nil {
		t.Error("SPECWorkload accepted unknown name")
	}
	// The unified resolver covers both families.
	for _, name := range []string{"cpu_int", "mcf"} {
		if _, err := Workload(name); err != nil {
			t.Errorf("Workload(%s): %v", name, err)
		}
	}
	if _, err := Workload("nope"); err == nil {
		t.Error("Workload accepted unknown name")
	}
}

func TestSystemWorkloadsCatalogue(t *testing.T) {
	s := quickSystem()
	if got, want := len(s.Workloads()), len(Microbenchmarks())+len(SPECWorkloads()); got != want {
		t.Errorf("Workloads() = %d names, want %d", got, want)
	}
}

func TestCustomKernelRoundTrip(t *testing.T) {
	b := NewKernelBuilder("custom")
	a := b.Reg("a")
	v := b.Reg("v")
	s := b.Stream(StreamSpec{Kind: StreamStride, Footprint: 8 << 10, Stride: 128})
	b.Load(v, s, NoReg)
	b.Op2(OpIntAdd, a, a, v)
	b.Branch(BranchLoop, a)
	k, err := b.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := quickSystem().MeasureSingle(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Errorf("custom kernel IPC = %v, want > 0", res.IPC)
	}
}

func TestMeasureMicroPair(t *testing.T) {
	s := quickSystem()
	ctx := context.Background()
	res, err := s.Measure(ctx, Spec{A: "cpu_int", B: "cpu_int", PA: Medium, PB: Medium})
	if err != nil {
		t.Fatal(err)
	}
	if res.Thread[0].IPC <= 0 || res.Thread[1].IPC <= 0 {
		t.Errorf("pair IPCs = (%v,%v), want both positive", res.Thread[0].IPC, res.Thread[1].IPC)
	}
	if _, err := s.Measure(ctx, Spec{A: "nope", B: "cpu_int"}); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

func TestMeasurePairValidation(t *testing.T) {
	s := quickSystem()
	if _, err := s.MeasurePair(nil, nil, Medium, Medium); err == nil {
		t.Error("MeasurePair accepted nil kernels")
	}
	if _, err := s.MeasureSingle(nil); err == nil {
		t.Error("MeasureSingle accepted nil kernel")
	}
}

// TestPriorityChangesOutcome: the headline result through the public API —
// prioritizing one of two identical threads shifts performance toward it.
func TestPriorityChangesOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := quickSystem()
	ctx := context.Background()
	base, err := s.Measure(ctx, Spec{A: "cpu_int", B: "cpu_int", PA: Medium, PB: Medium})
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.Measure(ctx, Spec{A: "cpu_int", B: "cpu_int", PA: High, PB: Low})
	if err != nil {
		t.Fatal(err)
	}
	if up.Thread[0].IPC <= base.Thread[0].IPC {
		t.Errorf("prioritized thread: %.3f -> %.3f, want improvement",
			base.Thread[0].IPC, up.Thread[0].IPC)
	}
	if up.Thread[1].IPC >= base.Thread[1].IPC {
		t.Errorf("deprioritized thread: %.3f -> %.3f, want degradation",
			base.Thread[1].IPC, up.Thread[1].IPC)
	}
}

func TestRunPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := quickSystem()
	res, err := s.RunPipeline(MediumHigh, Medium)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("pipeline timed out")
	}
	if res.Mean.Iter <= 0 {
		t.Errorf("pipeline iteration time %v, want positive", res.Mean.Iter)
	}
}

func TestTuneTotalIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning runs many simulations")
	}
	s := quickSystem()
	r, err := s.TuneTotalIPC(context.Background(), "ldint_l1", "ldint_mem")
	if err != nil {
		t.Fatal(err)
	}
	if r.BestDiff <= 0 {
		t.Errorf("tuner chose diff %d; prioritizing the high-IPC thread should win", r.BestDiff)
	}
}
