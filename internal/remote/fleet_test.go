package remote

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// scriptedWorker is a controllable fleet Worker for fleet tests: run
// behavior flips per test step, and every run is counted.
type scriptedWorker struct {
	name string

	mu      sync.Mutex
	failRun bool
	skipRun bool          // return every job Skipped with no worker error
	await   chan struct{} // if set, Run blocks until it is closed
	signal  chan struct{} // if set, the next Run closes it
	cancel  func()        // if set, Run calls it: the batch dies mid-run
	runs    int
}

func (w *scriptedWorker) Name() string { return w.name }

func (w *scriptedWorker) Run(_ context.Context, jobs []Job) ([]Result, error) {
	w.mu.Lock()
	await := w.await
	if w.signal != nil {
		close(w.signal)
		w.signal = nil
	}
	w.mu.Unlock()
	if await != nil {
		<-await
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runs++
	if w.cancel != nil {
		w.cancel()
	}
	if w.failRun {
		return nil, fmt.Errorf("%s: boom", w.name)
	}
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = Result{Job: j, Skipped: w.skipRun}
	}
	return out, nil
}

func (w *scriptedWorker) set(failRun bool) {
	w.mu.Lock()
	w.failRun = failRun
	w.mu.Unlock()
}

func (w *scriptedWorker) runCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs
}

// interleave makes the next two-chunk batch give each worker one
// chunk: each worker's next Run blocks until the other's has started.
func interleave(a, b *scriptedWorker) {
	ca, cb := make(chan struct{}), make(chan struct{})
	a.mu.Lock()
	a.signal, a.await = ca, cb
	a.mu.Unlock()
	b.mu.Lock()
	b.signal, b.await = cb, ca
	b.mu.Unlock()
}

// wantExcluded checks the fleet's membership, in fleet order.
func wantExcluded(t *testing.T, s *ShardedBackend, want ...bool) {
	t.Helper()
	st := s.WorkerStates()
	if len(st) != len(want) {
		t.Fatalf("worker states = %+v, want %d entries", st, len(want))
	}
	for i := range st {
		if st[i].Excluded != want[i] {
			t.Fatalf("worker states = %+v, want excluded %v", st, want)
		}
	}
}

// wantChunkSkipped checks a batch in which exactly one worker failed:
// the batch error names it, its one chunk (4 jobs) came back
// Skipped with its error, and every other job completed.
func wantChunkSkipped(t *testing.T, res []Result, err error, worker string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), worker+": boom") {
		t.Fatalf("batch error = %v, want the %s failure", err, worker)
	}
	skipped := 0
	for i, r := range res {
		switch {
		case r.Skipped && r.Err != nil && strings.Contains(r.Err.Error(), worker+": boom"):
			skipped++
		case r.Skipped || r.Err != nil:
			t.Fatalf("job %d = %+v, want completed or skipped by %s", i, r, worker)
		}
	}
	if skipped != 4 {
		t.Fatalf("%d jobs skipped, want the failed worker's chunk of 4", skipped)
	}
}

// dummyJobs builds placeholder jobs; scripted workers never simulate,
// so the content only needs distinct submission indices.
func dummyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].IterScale = float64(i + 1)
	}
	return jobs
}

// TestFleetMembership pins the fleet's membership rule: a worker whose
// run fails is marked down and takes no chunks until its registration
// heartbeat (AddWorker) or a successful run marks it up; a fleet whose
// workers are all down still dispatches the batch rather than failing
// it unattempted; and a run failing under a cancelled batch changes
// nobody's membership.
func TestFleetMembership(t *testing.T) {
	good := &scriptedWorker{name: "good"}
	bad := &scriptedWorker{name: "bad", failRun: true}
	s := NewDynamic(good, bad)
	s.chunk = 4 // an 8-job batch is one chunk per worker

	// bad fails its chunk, which comes back skipped for the caller to
	// resubmit; good completes the rest, and bad is marked down.
	interleave(good, bad)
	res, err := s.RunProgress(nil, dummyJobs(8), nil)
	wantChunkSkipped(t, res, err, "bad")
	wantExcluded(t, s, false, true)

	// Recovered but not yet heartbeating, bad takes no chunk.
	bad.set(false)
	if _, err := s.RunProgress(nil, dummyJobs(8), nil); err != nil {
		t.Fatalf("batch with bad down: %v", err)
	}
	if runs := bad.runCount(); runs != 1 {
		t.Fatalf("down worker ran %d chunks, want only its failed one", runs)
	}

	// A run that fails because its batch was cancelled says nothing
	// about the worker: nobody's membership changes.
	ctx, cancel := context.WithCancel(context.Background())
	good.mu.Lock()
	good.failRun, good.cancel = true, cancel
	good.mu.Unlock()
	if _, err := s.RunProgress(ctx, dummyJobs(8), nil); err != nil {
		t.Fatalf("cancelled batch returned batch error: %v", err)
	}
	wantExcluded(t, s, false, true)
	good.mu.Lock()
	good.failRun, good.cancel = false, nil
	good.mu.Unlock()

	// Its heartbeat readmits it without growing the fleet.
	if s.AddWorker(&scriptedWorker{name: "bad"}) {
		t.Fatal("re-registering a known worker grew the fleet")
	}
	wantExcluded(t, s, false, false)
	interleave(good, bad)
	if _, err := s.RunProgress(nil, dummyJobs(8), nil); err != nil {
		t.Fatalf("batch after readmission: %v", err)
	}
	if runs := bad.runCount(); runs != 2 {
		t.Fatalf("readmitted worker ran %d chunks in total, want 2", runs)
	}

	// Both fail: every job comes back skipped, the batch error names
	// both workers, and the whole fleet is down.
	good.set(true)
	bad.set(true)
	interleave(good, bad)
	res, err = s.RunProgress(nil, dummyJobs(8), nil)
	if err == nil || !strings.Contains(err.Error(), "good: boom") || !strings.Contains(err.Error(), "bad: boom") {
		t.Fatalf("batch error = %v, want both workers' failures", err)
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("job %d not skipped with error after fleet failure: %+v", i, r)
		}
	}
	wantExcluded(t, s, true, true)

	// The fleet recovers: an all-down fleet still gets the batch, and
	// each worker that succeeds is up again.
	good.set(false)
	bad.set(false)
	interleave(good, bad)
	res, err = s.RunProgress(nil, dummyJobs(8), nil)
	if err != nil {
		t.Fatalf("recovered fleet batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("recovered fleet job %d not completed: %+v", i, r)
		}
	}
	wantExcluded(t, s, false, false)
}

// TestSkippedWithoutError pins the fleet's handling of a worker that
// answers a batch without executing it and without an error: the jobs
// come back Skipped with a diagnostic naming the worker (never as
// empty successes), once — the daemon's client owns the retry.
func TestSkippedWithoutError(t *testing.T) {
	w := &scriptedWorker{name: "skipper", skipRun: true}
	res, err := NewDynamic(w).RunProgress(nil, dummyJobs(3), nil)
	if err != nil {
		t.Fatalf("batch error = %v, want nil (the worker did not fail)", err)
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil || !strings.Contains(r.Err.Error(), "skipper") {
			t.Fatalf("job %d = %+v, want skipped with a diagnostic naming the worker", i, r)
		}
	}
	if runs := w.runCount(); runs != 1 {
		t.Fatalf("skipping worker ran %d chunks, want 1", runs)
	}
}

// TestDynamicFleetRegistration pins the service-facing fleet API: an
// empty fleet fails batches with a clear error instead of panicking,
// AddWorker grows it at runtime, and re-registering a known worker
// marks it up instead of duplicating it.
func TestDynamicFleetRegistration(t *testing.T) {
	s := NewDynamic()
	_, err := s.RunProgress(nil, dummyJobs(2), nil)
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("empty-fleet batch error = %v, want a no-workers diagnostic", err)
	}

	w := &scriptedWorker{name: "w1"}
	if !s.AddWorker(w) {
		t.Fatal("AddWorker reported no growth for a new worker")
	}
	res, err := s.RunProgress(nil, dummyJobs(2), nil)
	if err != nil {
		t.Fatalf("batch after registration: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d not completed after registration: %+v", i, r)
		}
	}

	// Fail the worker so it is marked down, then re-register it: the
	// fleet must not grow, and the worker must be up again.
	w.set(true)
	if _, err := s.RunProgress(nil, dummyJobs(2), nil); err == nil {
		t.Fatal("batch against failing single-worker fleet succeeded")
	}
	wantExcluded(t, s, true)
	w.set(false)
	if s.AddWorker(&scriptedWorker{name: "w1"}) {
		t.Fatal("re-registering a known worker grew the fleet")
	}
	wantExcluded(t, s, false)
}
