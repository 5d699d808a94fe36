package remote

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedWorker is a controllable engine.Backend for circuit-breaker
// tests: health and run behavior flip per test step, and every call is
// counted. The await/signal pair serializes two workers so the failing
// one is guaranteed a chunk before the survivor drains the batch.
type scriptedWorker struct {
	name   string
	await  chan struct{} // if set, Run blocks until closed
	signal chan struct{} // if set, closed on first Run

	once sync.Once

	mu      sync.Mutex
	healthy bool
	failRun bool
	skipRun bool // return every job Skipped with no worker error
	runs    int
	probes  int
}

func (w *scriptedWorker) Name() string  { return w.name }
func (w *scriptedWorker) Capacity() int { return 4 }

func (w *scriptedWorker) Healthy(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		// A dead ctx fails before any request reaches the worker,
		// exactly like a real HTTP probe under a cancelled batch.
		return ctx.Err()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probes++
	if !w.healthy {
		return fmt.Errorf("%s: down", w.name)
	}
	return nil
}

func (w *scriptedWorker) Run(_ context.Context, jobs []Job) ([]Result, error) {
	if w.signal != nil {
		w.once.Do(func() { close(w.signal) })
	}
	if w.await != nil {
		<-w.await
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runs++
	if w.failRun {
		return nil, fmt.Errorf("%s: boom", w.name)
	}
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = Result{Job: j, Skipped: w.skipRun}
	}
	return out, nil
}

func (w *scriptedWorker) set(healthy, failRun bool) {
	w.mu.Lock()
	w.healthy = healthy
	w.failRun = failRun
	w.mu.Unlock()
}

func (w *scriptedWorker) counts() (runs, probes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs, w.probes
}

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// wantChunkSkipped checks a batch in which exactly one worker failed:
// the batch error names it, its one chunk (Capacity 4 jobs) came back
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

// TestBreakerDeadWorkerRejoins pins the cross-batch circuit breaker:
// a worker that fails a batch stays excluded from subsequent batches
// (no runs, no probes before its deadline), then one successful
// re-probe after the interval readmits it.
func TestBreakerDeadWorkerRejoins(t *testing.T) {
	gate := make(chan struct{})
	good := &scriptedWorker{name: "good", healthy: true, await: gate}
	bad := &scriptedWorker{name: "bad", healthy: true, failRun: true, signal: gate}
	clock := &fakeClock{t: time.Unix(1000, 0)}

	s := NewDynamic(good, bad)
	s.now = clock.now
	s.reprobe = time.Minute

	// Batch 1: bad fails its first chunk, which comes back skipped for
	// the caller to retry; good completes the rest.
	res, err := s.Run(nil, dummyJobs(8))
	wantChunkSkipped(t, res, err, "bad")
	badRuns, _ := bad.counts()
	if badRuns != 1 {
		t.Fatalf("bad worker ran %d chunks in batch 1, want 1", badRuns)
	}

	// The worker recovers, but its breaker is still open: before the
	// re-probe deadline it must be neither probed nor dispatched to.
	bad.set(true, false)
	if _, err := s.Run(nil, dummyJobs(8)); err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	if runs, probes := bad.counts(); runs != 1 || probes != 0 {
		t.Fatalf("excluded worker touched before deadline: runs=%d probes=%d, want 1/0", runs, probes)
	}

	// Past the deadline: one probe readmits it into the rotation.
	clock.advance(2 * time.Minute)
	if _, err := s.Run(nil, dummyJobs(8)); err != nil {
		t.Fatalf("batch 3: %v", err)
	}
	if _, probes := bad.counts(); probes != 1 {
		t.Fatalf("readmission probes = %d, want 1", probes)
	}
	s.mu.Lock()
	excluded := s.state[1].excluded
	s.mu.Unlock()
	if excluded {
		t.Fatal("worker still excluded after a successful re-probe")
	}
}

// TestBreakerFailedProbeBacksOff pins the backoff: a probe that fails
// pushes the next probe out exponentially instead of hammering a dead
// worker every batch.
func TestBreakerFailedProbeBacksOff(t *testing.T) {
	gate := make(chan struct{})
	good := &scriptedWorker{name: "good", healthy: true, await: gate}
	bad := &scriptedWorker{name: "bad", healthy: false, failRun: true, signal: gate}
	clock := &fakeClock{t: time.Unix(1000, 0)}

	s := NewDynamic(good, bad)
	s.now = clock.now
	s.reprobe = time.Minute

	// Batch 1: failures=1, next probe one base interval out.
	res, err := s.Run(nil, dummyJobs(8))
	wantChunkSkipped(t, res, err, "bad")

	// +70s: past the first deadline, so one probe runs — and fails,
	// doubling the backoff (failures=2, next probe 2m out).
	clock.advance(70 * time.Second)
	if _, err := s.Run(nil, dummyJobs(4)); err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	if _, probes := bad.counts(); probes != 1 {
		t.Fatalf("probes after first deadline = %d, want 1", probes)
	}

	// +60s more: a full base interval has elapsed again, but the
	// backed-off deadline (2m) has not — no second probe.
	clock.advance(60 * time.Second)
	if _, err := s.Run(nil, dummyJobs(4)); err != nil {
		t.Fatalf("batch 3: %v", err)
	}
	if _, probes := bad.counts(); probes != 1 {
		t.Fatalf("probed before backed-off deadline: %d probes, want 1", probes)
	}

	// Past the doubled deadline: the second probe runs.
	clock.advance(2 * time.Minute)
	if _, err := s.Run(nil, dummyJobs(4)); err != nil {
		t.Fatalf("batch 4: %v", err)
	}
	if _, probes := bad.counts(); probes != 2 {
		t.Fatalf("probes after backed-off deadline = %d, want 2", probes)
	}
	if runs, _ := bad.counts(); runs != 1 {
		t.Fatalf("dead worker dispatched after failed probes: runs = %d, want 1", runs)
	}
}

// TestBreakerAllDeadForceProbe pins the no-deadlock guarantee: with
// every worker's breaker open, a new batch force-probes the fleet
// instead of failing unattempted, so a recovered fleet serves it.
func TestBreakerAllDeadForceProbe(t *testing.T) {
	w1 := &scriptedWorker{name: "w1", healthy: true, failRun: true}
	w2 := &scriptedWorker{name: "w2", healthy: true, failRun: true}
	clock := &fakeClock{t: time.Unix(1000, 0)}

	s := NewDynamic(w1, w2)
	s.now = clock.now
	s.reprobe = time.Hour

	// Two chunks: each worker takes one, fails, and opens its breaker.
	res, err := s.Run(nil, dummyJobs(8))
	if err == nil {
		t.Fatal("batch against an all-failing fleet succeeded")
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("job %d not skipped with error after fleet failure: %+v", i, r)
		}
	}

	// Fleet recovers. The breakers are open for another hour, but the
	// force-probe path must readmit the workers immediately rather
	// than failing the batch with nobody dispatched.
	w1.set(true, false)
	w2.set(true, false)
	res, err = s.Run(nil, dummyJobs(4))
	if err != nil {
		t.Fatalf("recovered fleet batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("recovered fleet job %d not completed: %+v", i, r)
		}
	}

	// And when nothing recovers, the batch fails cleanly with the
	// circuit-open error.
	w1.set(false, true)
	w2.set(false, true)
	s2 := NewDynamic(w1, w2)
	s2.now = clock.now
	if _, err := s2.Run(nil, dummyJobs(8)); err == nil {
		t.Fatal("first batch against failing fleet succeeded")
	}
	_, err = s2.Run(nil, dummyJobs(2))
	if err == nil {
		t.Fatal("circuit-open batch succeeded with dead fleet")
	}
	if !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("want circuit-open error, got: %v", err)
	}
}

// TestBreakerCancelledProbeLeavesStateUntouched pins the probe ctx fix:
// a probe failing because the batch context is dead must not count as a
// worker failure. Before the fix a Ctrl-C'd batch incremented failures
// and pushed nextProbe out with exponential backoff, locking a healthy
// worker out for minutes.
func TestBreakerCancelledProbeLeavesStateUntouched(t *testing.T) {
	gate := make(chan struct{})
	good := &scriptedWorker{name: "good", healthy: true, await: gate}
	bad := &scriptedWorker{name: "bad", healthy: true, failRun: true, signal: gate}
	clock := &fakeClock{t: time.Unix(1000, 0)}

	s := NewDynamic(good, bad)
	s.now = clock.now
	s.reprobe = time.Minute

	// Batch 1: bad fails and its breaker opens (failures=1).
	res, err := s.Run(nil, dummyJobs(8))
	wantChunkSkipped(t, res, err, "bad")
	s.mu.Lock()
	before := s.state[1]
	s.mu.Unlock()
	if !before.excluded {
		t.Fatal("failing worker not excluded after batch 1")
	}

	// The worker recovers and its re-probe deadline passes; then a
	// batch arrives with an already-cancelled ctx. Its probe fails for
	// ctx reasons only, and must leave the breaker untouched.
	bad.set(true, false)
	clock.advance(2 * time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, dummyJobs(4)); err != nil {
		t.Fatalf("cancelled batch returned batch error: %v", err)
	}
	s.mu.Lock()
	after := s.state[1]
	s.mu.Unlock()
	if !after.excluded || after.failures != before.failures || !after.nextProbe.Equal(before.nextProbe) {
		t.Fatalf("dead-ctx probe mutated breaker state: before=%+v after=%+v", before, after)
	}

	// A live batch right after must probe and readmit immediately —
	// with the bug, the phantom failure would have doubled the backoff
	// and the worker would still be excluded here.
	if _, err := s.Run(nil, dummyJobs(8)); err != nil {
		t.Fatalf("recovery batch: %v", err)
	}
	s.mu.Lock()
	excluded := s.state[1].excluded
	s.mu.Unlock()
	if excluded {
		t.Fatal("worker still excluded after its recovery probe")
	}
}

// TestSkippedWithoutError pins the fleet's handling of a worker that
// answers a batch without executing it and without an error: the jobs
// come back Skipped with a diagnostic naming the worker (never as
// empty successes), once — the daemon's requeue owns the retry.
func TestSkippedWithoutError(t *testing.T) {
	w := &scriptedWorker{name: "skipper", healthy: true, skipRun: true}
	res, err := NewDynamic(w).Run(nil, dummyJobs(3))
	if err != nil {
		t.Fatalf("batch error = %v, want nil (the worker did not fail)", err)
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil || !strings.Contains(r.Err.Error(), "skipper") {
			t.Fatalf("job %d = %+v, want skipped with a diagnostic naming the worker", i, r)
		}
	}
	if runs, _ := w.counts(); runs != 1 {
		t.Fatalf("skipping worker ran %d chunks, want 1", runs)
	}
}

// TestDynamicFleetRegistration pins the service-facing fleet API: an
// empty fleet fails batches with a clear error instead of panicking,
// AddWorker grows it at runtime, and re-registering a known worker
// closes its breaker instead of duplicating it.
func TestDynamicFleetRegistration(t *testing.T) {
	s := NewDynamic()
	_, err := s.Run(nil, dummyJobs(2))
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("empty-fleet batch error = %v, want a no-workers diagnostic", err)
	}
	if s.Healthy(nil) == nil {
		t.Fatal("empty fleet reported healthy")
	}

	w := &scriptedWorker{name: "w1", healthy: true}
	if !s.AddWorker(w) {
		t.Fatal("AddWorker reported no growth for a new worker")
	}
	res, err := s.Run(nil, dummyJobs(2))
	if err != nil {
		t.Fatalf("batch after registration: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d not completed after registration: %+v", i, r)
		}
	}

	// Fail the worker so its breaker opens, then re-register it: the
	// fleet must not grow, and the breaker must close.
	w.set(true, true)
	if _, err := s.Run(nil, dummyJobs(2)); err == nil {
		t.Fatal("batch against failing single-worker fleet succeeded")
	}
	if st := s.WorkerStates(); len(st) != 1 || !st[0].Excluded {
		t.Fatalf("worker states after failure = %+v, want one excluded entry", st)
	}
	if s.Healthy(nil) == nil {
		t.Fatal("fleet with every breaker open reported healthy")
	}
	w.set(true, false)
	if s.AddWorker(&scriptedWorker{name: "w1", healthy: true}) {
		t.Fatal("re-registering a known worker grew the fleet")
	}
	st := s.WorkerStates()
	if len(st) != 1 || st[0].Excluded || st[0].Failures != 0 {
		t.Fatalf("worker states after re-registration = %+v, want one closed-breaker entry", st)
	}
	if err := s.Healthy(nil); err != nil {
		t.Fatalf("fleet with a closed breaker reported unhealthy: %v", err)
	}
}
