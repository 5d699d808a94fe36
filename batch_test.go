package power5prio

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// batchSystem shrinks measurements further than quickSystem: batch tests
// run several sweeps.
func batchSystem(options ...Option) *System {
	options = append([]Option{WithMeasureOptions(
		MeasureOptions{MinReps: 2, WarmupReps: 0, MaxCycles: 60_000_000})}, options...)
	return New(DefaultConfig(), options...)
}

// TestMeasureBatchMatchesSerial: a batch returns exactly what the direct
// chip-level API returns, independent of worker count.
func TestMeasureBatchMatchesSerial(t *testing.T) {
	specs := []Spec{
		{A: "cpu_int", B: "ldint_l1", PA: High, PB: Medium},
		{A: "cpu_int", B: "ldint_l1"},                       // zero levels: the Medium default
		{A: "cpu_int"},                                      // single-thread
		{A: "cpu_int", B: "ldint_l1", PA: High, PB: Medium}, // duplicate: cache hit
	}

	for _, workers := range []int{1, 8} {
		s := batchSystem(WithWorkers(workers))
		got, err := s.MeasureBatch(context.Background(), specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(specs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(specs))
		}

		ref := batchSystem()
		a, err := Microbenchmark("cpu_int")
		if err != nil {
			t.Fatal(err)
		}
		b, err := Microbenchmark("ldint_l1")
		if err != nil {
			t.Fatal(err)
		}
		pair, err := ref.MeasurePair(a, b, High, Medium)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != pair {
			t.Errorf("workers=%d: batch pair differs from MeasurePair\nbatch  %+v\nserial %+v",
				workers, got[0], pair)
		}
		base, err := ref.MeasurePair(a, b, Medium, Medium)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != base {
			t.Errorf("workers=%d: zero-level spec differs from explicit (4,4) MeasurePair", workers)
		}
		if got[3] != got[0] {
			t.Errorf("workers=%d: duplicate spec returned a different result", workers)
		}
		if !got[2].Thread[0].Active || got[2].Thread[1].Active {
			t.Errorf("workers=%d: single-thread spec thread states: %+v", workers, got[2].Thread)
		}

		st := s.BatchStats()
		if st.Submitted != 4 || st.Simulated != 3 || st.Hits != 1 {
			t.Errorf("workers=%d: stats %+v, want {Submitted:4 Simulated:3 Hits:1}", workers, st)
		}
	}
}

// TestCustomKernelEquivalence: a custom kernel measured through the
// registry/batch path is bit-identical to the direct MeasurePair path.
func TestCustomKernelEquivalence(t *testing.T) {
	build := func() *Kernel {
		b := NewKernelBuilder("batch_custom")
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
		return k
	}

	s := batchSystem()
	k := build()
	if err := s.RegisterWorkload(k); err != nil {
		t.Fatal(err)
	}
	partner, err := Microbenchmark("cpu_int")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.MeasurePair(k, partner, High, Low)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := s.Measure(context.Background(), Spec{A: "batch_custom", B: "cpu_int", PA: High, PB: Low})
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry != direct {
		t.Errorf("registry/batch path differs from direct MeasurePair\nbatch  %+v\ndirect %+v",
			viaRegistry, direct)
	}

	// The registered kernel flows through the engine cache like built-ins.
	before := s.BatchStats()
	again, err := s.Measure(context.Background(), Spec{A: "batch_custom", B: "cpu_int", PA: High, PB: Low})
	if err != nil {
		t.Fatal(err)
	}
	after := s.BatchStats()
	if again != direct {
		t.Error("cached custom measurement differs")
	}
	if after.Hits != before.Hits+1 || after.Simulated != before.Simulated {
		t.Errorf("repeat custom spec not served from cache: %+v -> %+v", before, after)
	}

	// Workloads() lists the registration; re-registering same content is
	// a no-op, different content is rejected.
	found := false
	for _, n := range s.Workloads() {
		if n == "batch_custom" {
			found = true
		}
	}
	if !found {
		t.Error("Workloads() does not list the custom kernel")
	}
	if err := s.RegisterWorkload(build()); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	b2 := NewKernelBuilder("batch_custom")
	a2 := b2.Reg("a")
	b2.Op2(OpIntAdd, a2, a2, a2)
	b2.Branch(BranchLoop, a2)
	k2, err := b2.Build(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWorkload(k2); err == nil {
		t.Error("conflicting registration did not error")
	}
	if err := s.RegisterWorkload(nil); err == nil {
		t.Error("RegisterWorkload accepted nil")
	}
}

// TestMixedFamilyEquivalence: a mixed micro/SPEC pair through the v2 API
// equals a hand-built cross-family chip run — and flows through the
// cache, which the old per-family BatchSpec API structurally forbade.
func TestMixedFamilyEquivalence(t *testing.T) {
	s := batchSystem()
	a, err := Microbenchmark("cpu_int")
	if err != nil {
		t.Fatal(err)
	}
	b, err := SPECWorkload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.MeasurePair(a, b, High, Medium)
	if err != nil {
		t.Fatal(err)
	}

	mixed, err := s.Measure(context.Background(), Spec{A: "cpu_int", B: "mcf", PA: High, PB: Medium})
	if err != nil {
		t.Fatalf("mixed-family spec rejected: %v", err)
	}
	if mixed != direct {
		t.Errorf("mixed-family batch differs from hand-built chip run\nbatch %+v\nchip  %+v", mixed, direct)
	}

	// Cache flow: the duplicate mixed spec is a hit (BatchStats counts).
	before := s.BatchStats()
	res, err := s.MeasureBatch(context.Background(), []Spec{
		{A: "cpu_int", B: "mcf", PA: High, PB: Medium},
		{A: "mcf", B: "cpu_int", PA: High, PB: Medium}, // reversed: a distinct job
	})
	if err != nil {
		t.Fatal(err)
	}
	after := s.BatchStats()
	if res[0] != direct {
		t.Error("cached mixed result differs")
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("mixed duplicate not a cache hit: %+v -> %+v", before, after)
	}
	if after.Simulated != before.Simulated+1 {
		t.Errorf("reversed mixed pair should simulate once: %+v -> %+v", before, after)
	}
}

// TestSpecValidation: the v2 Spec makes the level default explicit and
// rejects invalid levels — the BatchSpec zero-value ambiguity regression
// test.
func TestSpecValidation(t *testing.T) {
	s := batchSystem()
	ctx := context.Background()

	// Zero levels mean Medium, for pairs AND singles: the zero-value pair
	// must equal the explicit (4,4) pair (the historical API silently ran
	// (0,0) = both threads off).
	imp, err := s.Measure(ctx, Spec{A: "cpu_int", B: "ldint_l1"})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := s.Measure(ctx, Spec{A: "cpu_int", B: "ldint_l1", PA: Medium, PB: Medium})
	if err != nil {
		t.Fatal(err)
	}
	if imp != exp {
		t.Error("zero-level spec differs from explicit Medium levels")
	}
	if st := s.BatchStats(); st.Hits != 1 {
		t.Errorf("implicit and explicit defaults are distinct cache keys: %+v", st)
	}

	for _, tc := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"empty", Spec{}, "workload name"},
		{"unknown A", Spec{A: "nope"}, "unknown workload"},
		{"unknown B", Spec{A: "cpu_int", B: "nope"}, "unknown workload"},
		{"PA too high", Spec{A: "cpu_int", B: "ldint_l1", PA: 8}, "invalid priority PA"},
		{"PA negative", Spec{A: "cpu_int", B: "ldint_l1", PA: -1}, "invalid priority PA"},
		{"PB too high", Spec{A: "cpu_int", B: "ldint_l1", PB: 9}, "invalid priority PB"},
		{"PB on single", Spec{A: "cpu_int", PB: 3}, "no second workload"},
		{"PA invalid on single", Spec{A: "cpu_int", PA: 11}, "invalid priority PA"},
	} {
		_, err := s.Measure(ctx, tc.sp)
		if err == nil {
			t.Errorf("%s: spec %+v accepted", tc.name, tc.sp)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	if _, err := s.MeasureSingleSpec(ctx, Spec{A: "cpu_int", B: "ldint_l1"}); err == nil {
		t.Error("MeasureSingleSpec accepted a pair spec")
	}
	st, err := s.MeasureSingleSpec(ctx, Spec{A: "cpu_int", PA: High})
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 {
		t.Errorf("single-spec measurement made no progress: %+v", st)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the engine's workers exit asynchronously after Run returns).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestMeasureBatchCancellation: a cancelled batch returns exactly the
// completed prefix, wraps context.Canceled, leaks no goroutines, and a
// retry resumes from the cache.
func TestMeasureBatchCancellation(t *testing.T) {
	base := runtime.NumGoroutine()

	specs := []Spec{
		{A: "cpu_int", B: "ldint_l1", PA: High, PB: Medium},
		{A: "cpu_int", B: "ldint_l1", PA: MediumHigh, PB: Medium},
		{A: "cpu_int", B: "ldint_l1", PA: Medium, PB: Medium},
		{A: "cpu_int", B: "ldint_l1", PA: MediumLow, PB: Medium},
		{A: "cpu_int", B: "ldint_l1", PA: Low, PB: Medium},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 2
	var progressed []Spec
	firstRun := true // the callback fires for the retry batch too
	s := batchSystem(WithWorkers(1), WithProgress(func(done, total int, sp Spec, res PairResult) {
		if !firstRun {
			return
		}
		if total != len(specs) {
			t.Errorf("progress total = %d, want %d", total, len(specs))
		}
		if done != len(progressed)+1 {
			t.Errorf("progress done = %d out of order", done)
		}
		progressed = append(progressed, sp)
		if done == stopAfter {
			cancel()
		}
	}))

	partial, err := s.MeasureBatch(ctx, specs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch error = %v, want context.Canceled", err)
	}
	if len(partial) < stopAfter || len(partial) >= len(specs) {
		t.Fatalf("partial results = %d, want in [%d,%d)", len(partial), stopAfter, len(specs))
	}
	if len(progressed) != len(partial) {
		t.Errorf("progress reported %d measurements, partial has %d", len(progressed), len(partial))
	}

	// The prefix is exactly what a fresh serial run of those specs yields.
	ref := batchSystem()
	want, err := ref.MeasureBatch(context.Background(), specs[:len(partial)])
	if err != nil {
		t.Fatal(err)
	}
	for i := range partial {
		if partial[i] != want[i] {
			t.Errorf("prefix result %d differs from uncancelled reference", i)
		}
	}

	// Retry on the same System: completed work is cache hits.
	firstRun = false
	before := s.BatchStats()
	full, err := s.MeasureBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	after := s.BatchStats()
	if len(full) != len(specs) {
		t.Fatalf("retry returned %d results", len(full))
	}
	if hits := after.Hits - before.Hits; hits != len(partial) {
		t.Errorf("retry reused %d cached measurements, want %d", hits, len(partial))
	}
	if before.Skipped == 0 {
		t.Errorf("stats do not count skipped jobs: %+v", before)
	}

	waitGoroutines(t, base)
}

// TestMeasureMatrix: the public matrix sweep returns complete, reusable
// cells, accepts mixed families, and validates its inputs.
func TestMeasureMatrix(t *testing.T) {
	s := batchSystem()
	ctx := context.Background()
	names := []string{"cpu_int", "mcf"} // mixed: micro + SPEC stand-in
	m, err := s.MeasureMatrix(ctx, names, names, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partial {
		t.Error("complete matrix marked Partial")
	}
	for _, p := range names {
		if m.SingleIPC[p] <= 0 {
			t.Errorf("SingleIPC[%s] = %v", p, m.SingleIPC[p])
		}
		for _, q := range names {
			if m.At(p, q, 2).Primary <= 0 {
				t.Errorf("cell (%s,%s,+2) empty", p, q)
			}
		}
	}
	if rel := m.RelPrimary("cpu_int", "mcf", 2); rel <= 0 {
		t.Errorf("RelPrimary = %v", rel)
	}

	if _, err := s.MeasureMatrix(ctx, []string{"nope"}, names, []int{0}); err == nil {
		t.Error("unknown primary did not error")
	}
	if _, err := s.MeasureMatrix(ctx, names, names, []int{7}); err == nil {
		t.Error("out-of-range diff did not error")
	}
}

// TestMeasureMatrixCancellation: cancelling mid-sweep returns the partial
// matrix without deadlock, and the measured cells survive.
func TestMeasureMatrixCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 3
	done := 0
	s := batchSystem(WithWorkers(1), WithProgress(func(d, total int, sp Spec, res PairResult) {
		done = d
		if d == stopAfter {
			cancel()
		}
	}))
	names := []string{"cpu_int", "ldint_l1"}
	diffs := []int{0, 2, -2}
	m, err := s.MeasureMatrix(ctx, names, names, diffs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled matrix error = %v", err)
	}
	if m == nil || !m.Partial {
		t.Fatal("cancelled matrix missing or not Partial")
	}
	measured := len(m.SingleIPC)
	for _, p := range names {
		for _, q := range names {
			for _, d := range diffs {
				if m.Has(p, q, d) {
					measured++
				}
			}
		}
	}
	total := len(names) * (1 + len(names)*len(diffs))
	if measured == 0 || measured >= total {
		t.Errorf("partial matrix holds %d/%d entries, want a strict subset", measured, total)
	}
	if done == 0 {
		t.Error("progress callback never fired")
	}
	waitGoroutines(t, base)
}

// TestTuneTotalIPCThroughEngine: the tuner routes its evaluations through
// the batch engine — re-tuning the same pair simulates nothing new.
func TestTuneTotalIPCThroughEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning runs many simulations")
	}
	s := batchSystem()
	ctx := context.Background()
	r1, err := s.TuneTotalIPC(ctx, "ldint_l1", "ldint_mem")
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.BatchStats()
	if st1.Simulated == 0 || st1.Submitted != r1.Evals {
		t.Errorf("tuner bypassed the engine: stats %+v, evals %d", st1, r1.Evals)
	}

	r2, err := s.TuneTotalIPC(ctx, "ldint_l1", "ldint_mem")
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.BatchStats()
	if st2.Simulated != st1.Simulated {
		t.Errorf("re-tune simulated %d new jobs, want 0 (cache)", st2.Simulated-st1.Simulated)
	}
	if r2.BestDiff != r1.BestDiff || r2.BestValue != r1.BestValue {
		t.Errorf("re-tune diverged: %+v vs %+v", r2, r1)
	}

	// Cancellation aborts the search.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.TuneTotalIPC(cctx, "cpu_int", "cpu_fp"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled TuneTotalIPC returned %v", err)
	}
}
