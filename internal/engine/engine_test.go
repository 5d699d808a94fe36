package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"power5prio/internal/core"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/spec"
	"power5prio/internal/workload"
)

// testOptions keeps engine tests fast: two repetitions, tiny kernels.
func testOptions() fame.Options {
	return fame.Options{MinReps: 2, WarmupReps: 0, MaxCycles: 50_000_000}
}

const testScale = 0.02 // clamps to the minimum kernel length

// ref resolves a built-in workload name for tests.
func ref(t testing.TB, name string) workload.Ref {
	t.Helper()
	r, err := workload.NewRegistry().Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testBatch builds a small mixed batch: singles, pairs across the
// priority range, and deliberate duplicates.
func testBatch(t testing.TB) []Job {
	cfg := core.DefaultConfig()
	opt := testOptions()
	var jobs []Job
	for _, name := range []string{microbench.CPUInt, microbench.LdIntL1} {
		jobs = append(jobs, Single(ref(t, name), prio.Supervisor, testScale, cfg, opt))
	}
	for _, pp := range []prio.Level{prio.High, prio.Medium, prio.Low} {
		jobs = append(jobs,
			Pair(ref(t, microbench.CPUInt), ref(t, microbench.LdIntL1), pp, prio.Medium, prio.Supervisor, testScale, cfg, opt))
	}
	// Duplicates of the first single and the first pair.
	jobs = append(jobs, jobs[0], jobs[2])
	return jobs
}

// checkAccounting asserts the identity every returned batch leaves in
// the engine's stats: each submitted job was served exactly one way — a
// cache hit, a simulation, a skip or a tier-0 estimate.
func checkAccounting(t testing.TB, e *Engine) {
	t.Helper()
	st := e.Stats()
	if sum := st.Hits + st.Simulated + st.Skipped + st.EstimatedHits; sum != st.Submitted {
		t.Errorf("stats %+v: hits+simulated+skipped+estimated = %d, want Submitted = %d", st, sum, st.Submitted)
	}
}

// TestEngineEquivalence proves worker-count independence: the same batch
// run serially (1 worker), in parallel (8 workers) and via the Execute
// reference path yields bit-identical IPC values for every job.
func TestEngineEquivalence(t *testing.T) {
	jobs := testBatch(t)

	serial := New(1).Run(nil, jobs)
	parallel := New(8).Run(nil, jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result lengths %d/%d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		pair, err := Execute(nil, jobs[i])
		if err != nil {
			t.Fatalf("Execute(%d): %v", i, err)
		}
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: serial %v, parallel %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Pair != pair {
			t.Errorf("job %d: serial result differs from Execute reference\nserial %+v\nref    %+v",
				i, serial[i].Pair, pair)
		}
		if parallel[i].Pair != pair {
			t.Errorf("job %d: parallel result differs from Execute reference\nparallel %+v\nref      %+v",
				i, parallel[i].Pair, pair)
		}
		if pair.Thread[0].IPC <= 0 {
			t.Errorf("job %d: no progress (IPC %v)", i, pair.Thread[0].IPC)
		}
	}
}

// TestMixedFamilyPair: a micro-benchmark and a SPEC stand-in co-schedule
// in one job — the registry killed the per-family silo — and the result
// equals placing the two kernels on a chip by hand.
func TestMixedFamilyPair(t *testing.T) {
	cfg := core.DefaultConfig()
	opt := testOptions()
	e := New(2)
	j := Pair(ref(t, microbench.CPUInt), ref(t, spec.MCF),
		prio.High, prio.Medium, prio.Supervisor, testScale, cfg, opt)
	res := e.Run(nil, []Job{j})
	if res[0].Err != nil {
		t.Fatalf("mixed-family job failed: %v", res[0].Err)
	}

	// Hand-built cross-family reference run.
	ka, err := microbench.BuildWith(microbench.CPUInt, microbench.Params{IterScale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := spec.BuildWith(spec.MCF, spec.Params{IterScale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	ch := core.NewChip(cfg)
	ch.PlacePair(ka, kb, prio.High, prio.Medium, prio.Supervisor)
	want := fame.Measure(ch, opt)
	if res[0].Pair != want {
		t.Errorf("mixed-family engine run differs from hand-built chip run\nengine %+v\nchip   %+v",
			res[0].Pair, want)
	}
}

// TestCustomKernelJob: a registered custom kernel runs through the engine
// and caches by content fingerprint.
func TestCustomKernelJob(t *testing.T) {
	build := func(name string, iters int) *isa.Kernel {
		b := isa.NewBuilder(name)
		a := b.Reg("a")
		b.Op2(isa.OpIntAdd, a, a, a)
		b.Branch(isa.BranchLoop, a)
		return b.MustBuild(iters)
	}
	e := New(2)
	cref, err := e.Registry().Register(build("custom_add", 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	opt := testOptions()
	j := Pair(cref, ref(t, microbench.LdIntL1), prio.Medium, prio.Medium, prio.Supervisor, 1.0, cfg, opt)
	res := e.Run(nil, []Job{j, j})
	if res[0].Err != nil {
		t.Fatalf("custom job failed: %v", res[0].Err)
	}
	if !res[1].CacheHit || res[1].Pair != res[0].Pair {
		t.Error("duplicate custom job was not a cache hit")
	}

	// A different registry with different content under the same name
	// yields a different fingerprint, hence a different cache key.
	e2 := New(2)
	cref2, err := e2.Registry().Register(build("custom_add", 32))
	if err != nil {
		t.Fatal(err)
	}
	if cref2.Fingerprint == cref.Fingerprint {
		t.Error("different kernel content produced the same fingerprint")
	}
}

// TestCacheAccounting checks hit/miss bookkeeping within a batch and
// across batches.
func TestCacheAccounting(t *testing.T) {
	jobs := testBatch(t) // 7 jobs, 5 unique
	e := New(4)

	res := e.Run(nil, jobs)
	for i := 0; i < 5; i++ {
		if res[i].CacheHit {
			t.Errorf("job %d: first occurrence flagged as cache hit", i)
		}
	}
	for i := 5; i < 7; i++ {
		if !res[i].CacheHit {
			t.Errorf("job %d: in-batch duplicate not flagged as cache hit", i)
		}
	}
	st := e.Stats()
	if st.Submitted != 7 || st.Simulated != 5 || st.Hits != 2 {
		t.Errorf("after batch 1: stats %+v, want {Submitted:7 Simulated:5 Hits:2}", st)
	}
	checkAccounting(t, e)

	// The whole batch again: everything is served from the cache.
	res = e.Run(nil, jobs)
	for i, r := range res {
		if !r.CacheHit {
			t.Errorf("batch 2 job %d: not a cache hit", i)
		}
	}
	st = e.Stats()
	if st.Submitted != 14 || st.Simulated != 5 || st.Hits != 9 {
		t.Errorf("after batch 2: stats %+v, want {Submitted:14 Simulated:5 Hits:9}", st)
	}
	checkAccounting(t, e)

	if !strings.Contains(st.String(), "5 simulated") {
		t.Errorf("Stats.String() = %q", st.String())
	}
	if strings.Contains(st.String(), "skipped") {
		t.Errorf("Stats.String() mentions skipped with none: %q", st.String())
	}
}

// TestCachedResultsIdentical: a cache hit returns exactly what the miss
// computed.
func TestCachedResultsIdentical(t *testing.T) {
	jobs := testBatch(t)
	e := New(2)
	first := e.Run(nil, jobs)
	second := e.Run(nil, jobs)
	for i := range jobs {
		if first[i].Pair != second[i].Pair {
			t.Errorf("job %d: cached result differs from original", i)
		}
	}
}

// TestRunCancellation: cancelling a serial batch mid-run keeps the
// completed prefix, marks the rest with the context error, and caches the
// completed work for a retry.
func TestRunCancellation(t *testing.T) {
	jobs := testBatch(t)[:5] // 5 unique jobs
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const stopAfter = 2
	completed := 0
	res := e.RunFunc(ctx, jobs, func(i int, r Result) {
		if r.Err == nil {
			completed++
			if completed == stopAfter {
				cancel()
			}
		}
	})

	nDone := 0
	for i, r := range res {
		if r.Err == nil {
			nDone++
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err %v, want context.Canceled", i, r.Err)
		}
		// Prefix property (1 worker): nothing completes after the first skip.
		for _, later := range res[i:] {
			if later.Err == nil {
				t.Fatalf("job completed after an earlier job was skipped")
			}
		}
		break
	}
	if nDone < stopAfter || nDone >= len(jobs) {
		t.Fatalf("%d jobs completed, want in [%d,%d)", nDone, stopAfter, len(jobs))
	}
	st := e.Stats()
	if st.Simulated != nDone || st.Skipped != len(jobs)-nDone {
		t.Errorf("stats %+v after cancellation (%d done)", st, nDone)
	}
	if !strings.Contains(st.String(), "skipped") {
		t.Errorf("Stats.String() hides skipped jobs: %q", st.String())
	}
	checkAccounting(t, e)

	// Retry with a live context: completed work is served from the cache.
	res2 := e.Run(context.Background(), jobs)
	hits := 0
	for i, r := range res2 {
		if r.Err != nil {
			t.Fatalf("retry job %d: %v", i, r.Err)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != nDone {
		t.Errorf("retry reused %d cached jobs, want %d", hits, nDone)
	}
	checkAccounting(t, e)
}

// TestRunPreCancelled: an already-cancelled context runs nothing.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(4)
	res := e.Run(ctx, testBatch(t))
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err %v, want context.Canceled", i, r.Err)
		}
	}
	if st := e.Stats(); st.Simulated != 0 || st.Skipped != len(res) {
		t.Errorf("stats %+v, want nothing simulated, all skipped", st)
	}
}

// TestRunFuncProgress: the callback fires exactly once per job index,
// hits and duplicates included.
func TestRunFuncProgress(t *testing.T) {
	jobs := testBatch(t)
	e := New(4)
	e.Run(nil, jobs[:2]) // pre-warm two jobs to produce cross-batch hits

	seen := make(map[int]int)
	e.RunFunc(nil, jobs, func(i int, r Result) {
		seen[i]++
		if r.Err != nil {
			t.Errorf("job %d reported error %v", i, r.Err)
		}
		if r.Pair.Cycles == 0 {
			t.Errorf("job %d reported an empty result", i)
		}
	})
	if len(seen) != len(jobs) {
		t.Fatalf("progress covered %d jobs, want %d", len(seen), len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("job %d reported %d times", i, n)
		}
	}
}

// TestSingleThreadJob: a zero Secondary runs the primary alone with the
// sibling thread off.
func TestSingleThreadJob(t *testing.T) {
	j := Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
	res, err := Execute(nil, j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Thread[0].Active || res.Thread[0].IPC <= 0 {
		t.Errorf("primary thread inactive or stalled: %+v", res.Thread[0])
	}
	if res.Thread[1].Active {
		t.Errorf("secondary thread active in a single-thread job")
	}
}

// TestJobErrors: invalid jobs return errors — and errors do not poison
// valid jobs in the same batch.
func TestJobErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	opt := testOptions()
	forged := workload.Ref{Name: "no_such_bench", Family: workload.Micro, Fingerprint: 1}
	bad := Single(forged, prio.Supervisor, testScale, cfg, opt)
	good := Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, cfg, opt)
	stale := Pair(ref(t, microbench.CPUInt), workload.Ref{Name: "ghost", Family: workload.Custom, Fingerprint: 9},
		prio.Medium, prio.Medium, prio.Supervisor, testScale, cfg, opt)

	res := New(2).Run(nil, []Job{bad, good, stale})
	if res[0].Err == nil {
		t.Error("forged workload ref did not error")
	}
	if res[1].Err != nil {
		t.Errorf("valid job failed alongside an invalid one: %v", res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("unknown custom ref did not error")
	}

	if _, err := Execute(nil, Job{Chip: cfg, Fame: opt}); err == nil {
		t.Error("job without a primary workload did not error")
	}
	badOpts := opt
	badOpts.MinReps = 0
	if _, err := Execute(nil, Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, cfg, badOpts)); err == nil {
		t.Error("invalid FAME options did not error")
	}
	badChip := cfg
	badChip.ExperimentCore = 99
	if _, err := Execute(nil, Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, badChip, opt)); err == nil {
		t.Error("invalid chip config did not error")
	}
}

// TestForEach covers the generic pool: every index runs exactly once,
// concurrently, for worker counts above and below n — and cancellation
// stops dispatch.
func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		e := New(workers)
		const n = 10
		var mu sync.Mutex
		seen := make(map[int]int)
		if err := e.ForEach(nil, n, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Errorf("workers=%d: %d distinct indices, want %d", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if err := e.ForEach(nil, 0, func(int) { t.Error("ForEach(0) must not call fn") }); err != nil {
			t.Errorf("ForEach(0) = %v", err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := New(2).ForEach(ctx, 4, func(int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ForEach returned %v", err)
	}
	if ran {
		t.Error("cancelled ForEach dispatched work")
	}
}

// TestConcurrentEngineUse: one engine, many goroutines submitting
// overlapping batches — exercised under -race in CI.
func TestConcurrentEngineUse(t *testing.T) {
	e := New(4)
	jobs := testBatch(t)
	want := e.Run(nil, jobs)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.Run(nil, jobs)
			for i := range jobs {
				if res[i].Pair != want[i].Pair {
					t.Errorf("concurrent batch diverged at job %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineExecuteMethod: the method form resolves through the engine's
// own registry, covering custom kernels.
func TestEngineExecuteMethod(t *testing.T) {
	b := isa.NewBuilder("exec_custom")
	a := b.Reg("a")
	b.Op2(isa.OpIntAdd, a, a, a)
	b.Branch(isa.BranchLoop, a)
	e := New(1)
	cref, err := e.Registry().Register(b.MustBuild(16))
	if err != nil {
		t.Fatal(err)
	}
	j := Single(cref, prio.Supervisor, 1.0, core.DefaultConfig(), testOptions())
	res, err := e.Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Thread[0].IPC <= 0 {
		t.Errorf("custom kernel made no progress: %+v", res.Thread[0])
	}
	// The same job through a fresh engine (no registration) must fail.
	if _, err := Execute(nil, j); err == nil {
		t.Error("custom job resolved in a registry that never registered it")
	}
}
