package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"power5prio/internal/engine"
)

// ShardedBackend fans a job batch out across a fleet of workers and
// merges the results deterministically: every result lands at its job's
// submission index, and every job's result is a pure function of the
// job, so any fleet size, chunking or failure interleaving produces
// bytes identical to a local run.
//
// Scheduling is work-stealing rather than static: each worker pulls the
// next chunk of at most its Capacity jobs when it becomes free, so a
// fast worker takes more of the batch than a slow one. The fleet does
// not retry: a failed worker's jobs come back Skipped, and the p5d
// daemon that owns the fleet requeues them. Job-level errors are
// deterministic and are never retried.
//
// Failures are remembered across batches (a circuit breaker): a
// worker that failed stays out of subsequent batches until its
// re-probe deadline passes, at which point one health probe decides
// whether it rejoins; failed probes push the deadline out with
// exponential backoff (capped at 8x the base interval). When every
// worker is excluded the breaker force-probes the whole fleet rather
// than failing a batch nobody attempted. AddWorker (the daemon's
// registration heartbeat) closes a worker's breaker at once.
type ShardedBackend struct {
	reprobe time.Duration    // base re-probe interval; tests shorten it
	now     func() time.Time // injectable for the circuit-breaker tests

	mu      sync.Mutex
	workers []engine.Backend // append-only; elements are never replaced
	state   []workerState
}

// workerState is the per-worker circuit-breaker bookkeeping.
type workerState struct {
	excluded  bool
	failures  int       // consecutive failures since last success
	nextProbe time.Time // earliest time a re-probe may run
}

// DefaultReprobe is the base interval before an excluded worker is
// probed for readmission.
const DefaultReprobe = 30 * time.Second

// NewDynamic builds a sharded backend whose fleet may start empty and
// grow at runtime through AddWorker — the shape the p5d daemon's
// worker registration needs. With no workers, batches fail with a
// no-workers error rather than panicking.
func NewDynamic(workers ...engine.Backend) *ShardedBackend {
	return &ShardedBackend{
		workers: workers,
		reprobe: DefaultReprobe,
		now:     time.Now,
		state:   make([]workerState, len(workers)),
	}
}

// AddWorker adds w to the fleet. If a worker with the same Name is
// already present, the fleet does not grow: that worker's breaker is
// closed instead, because a re-registering worker is announcing
// liveness (the caller is expected to have health-checked it first —
// the service's registration handler does). It reports whether the
// fleet grew. Batches already running are unaffected; the worker joins
// scheduling from the next batch.
func (s *ShardedBackend) AddWorker(w engine.Backend) bool {
	name := w.Name()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.workers {
		if s.workers[i].Name() == name {
			s.state[i] = workerState{}
			return false
		}
	}
	s.workers = append(s.workers, w)
	s.state = append(s.state, workerState{})
	return true
}

// WorkerStatus is a point-in-time snapshot of one worker's
// circuit-breaker state, exposed for service /v1/stats reporting.
type WorkerStatus struct {
	Name     string `json:"name"`
	Excluded bool   `json:"excluded,omitempty"`
	// Failures counts consecutive failures since the last success.
	Failures int `json:"failures,omitempty"`
	// NextProbe is the earliest time a re-probe may readmit the worker
	// (zero when the breaker is closed).
	NextProbe time.Time `json:"next_probe,omitzero"`
}

// WorkerStates snapshots every worker's breaker state, in fleet order.
func (s *ShardedBackend) WorkerStates() []WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, len(s.workers))
	for i, w := range s.workers {
		st := s.state[i]
		out[i] = WorkerStatus{Name: w.Name(), Excluded: st.excluded, Failures: st.failures}
		if st.excluded {
			out[i].NextProbe = st.nextProbe
		}
	}
	return out
}

// snapshot returns the current worker list. The slice is append-only
// and elements are never replaced, so indexing a snapshot stays valid
// while AddWorker grows the fleet concurrently.
func (s *ShardedBackend) snapshot() []engine.Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// markFailed opens the breaker for worker i and schedules its re-probe.
func (s *ShardedBackend) markFailed(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.state[i]
	st.excluded = true
	st.failures++
	st.nextProbe = s.now().Add(s.backoffLocked(st.failures))
}

// backoffLocked returns the re-probe delay after n consecutive
// failures: reprobe * 2^(n-1), capped at 8x.
func (s *ShardedBackend) backoffLocked(n int) time.Duration {
	d := s.reprobe
	for i := 1; i < n && d < 8*s.reprobe; i++ {
		d *= 2
	}
	if d > 8*s.reprobe {
		d = 8 * s.reprobe
	}
	return d
}

// eligible returns the indices of workers allowed into this batch:
// every closed-breaker worker, plus any excluded worker whose re-probe
// deadline has passed and whose health probe succeeds. If that leaves
// nobody, every excluded worker is force-probed — the breaker must
// never fail a batch without at least attempting the fleet.
func (s *ShardedBackend) eligible(ctx context.Context) []int {
	var use, due, out []int
	s.mu.Lock()
	nowT := s.now()
	for i := range s.workers {
		switch st := s.state[i]; {
		case !st.excluded:
			use = append(use, i)
		case !nowT.Before(st.nextProbe):
			due = append(due, i)
		default:
			out = append(out, i)
		}
	}
	s.mu.Unlock()

	use = append(use, s.probe(ctx, due)...)
	if len(use) == 0 {
		use = s.probe(ctx, out)
	}
	return use
}

// probe health-checks the given excluded workers, readmitting the ones
// that answer and extending the backoff of the ones that do not. A
// probe that fails because the batch context is cancelled or expired
// says nothing about the worker — every probe fails under a dead ctx —
// so breaker state is left untouched: counting those failures would
// push nextProbe out with exponential backoff and lock healthy workers
// out for minutes after a Ctrl-C'd batch.
func (s *ShardedBackend) probe(ctx context.Context, idxs []int) []int {
	workers := s.snapshot()
	var ok []int
	for _, i := range idxs {
		err := workers[i].Healthy(ctx)
		if err != nil && ctx.Err() != nil {
			continue
		}
		s.mu.Lock()
		st := &s.state[i]
		if err == nil {
			st.excluded = false
			st.failures = 0
			ok = append(ok, i)
		} else {
			st.failures++
			st.nextProbe = s.now().Add(s.backoffLocked(st.failures))
		}
		s.mu.Unlock()
	}
	return ok
}

// Name identifies the fleet in diagnostics.
func (s *ShardedBackend) Name() string {
	workers := s.snapshot()
	if len(workers) == 1 {
		return workers[0].Name()
	}
	return fmt.Sprintf("sharded(%d workers)", len(workers))
}

// Capacity sums the fleet's per-worker capacities.
func (s *ShardedBackend) Capacity() int {
	total := 0
	for _, w := range s.snapshot() {
		total += w.Capacity()
	}
	return total
}

// Healthy succeeds while some worker's breaker is closed. It probes
// nothing: readmission probes run at the start of the next batch.
func (s *ShardedBackend) Healthy(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.workers) == 0 {
		return errors.New("remote: fleet has no workers")
	}
	for _, st := range s.state {
		if !st.excluded {
			return nil
		}
	}
	return fmt.Errorf("remote: all %d workers excluded by the circuit breaker", len(s.workers))
}

// RemoteStats sums the fleet's per-worker counters.
func (s *ShardedBackend) RemoteStats() engine.RemoteStats {
	var total engine.RemoteStats
	for _, w := range s.snapshot() {
		if ws, ok := w.(engine.RemoteStatser); ok {
			r := ws.RemoteStats()
			total.Jobs += r.Jobs
			total.Retries += r.Retries
			total.WorkerErrors += r.WorkerErrors
		}
	}
	return total
}

// Run executes the batch across the fleet; see RunProgress.
func (s *ShardedBackend) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return s.RunProgress(ctx, jobs, nil)
}

// RunProgress executes the batch across the fleet, reporting each job's
// result as it lands. Workers pull chunks of at most their Capacity
// from a shared cursor until the batch is taken. A worker that fails
// returns its chunk's unfinished jobs Skipped with its error, has its
// breaker opened and takes no more chunks; the chunks nobody has taken
// go to the survivors. Skipped jobs are not retried here: the caller
// (the p5d daemon's requeue) owns retries. The batch error joins the
// worker failures, and is nil when none failed. On cancellation the
// untaken jobs return Skipped with the context's error.
func (s *ShardedBackend) RunProgress(ctx context.Context, jobs []Job, done func(i int, r Result)) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Result, len(jobs))
	var doneMu sync.Mutex
	finish := func(k int, r Result) {
		out[k] = r
		if done != nil {
			doneMu.Lock()
			done(k, r)
			doneMu.Unlock()
		}
	}

	workers := s.snapshot()
	active := s.eligible(ctx)
	if len(active) == 0 {
		var err error
		if len(workers) == 0 {
			err = fmt.Errorf("remote: %d jobs undispatched: fleet has no workers (none configured or registered yet)", len(jobs))
		} else {
			err = fmt.Errorf("remote: %d jobs undispatched: all %d workers failed: circuit open, no worker passed its readmission probe", len(jobs), len(workers))
		}
		for k := range jobs {
			finish(k, Result{Job: jobs[k], Err: err, Skipped: true})
		}
		return out, err
	}

	// next is the work-stealing cursor: the first job no worker has
	// taken. It only grows, so [min(next, len), len) is what is left.
	var next atomic.Int64
	take := func(n int) (lo, hi int) {
		n = max(n, 1)
		hi = int(next.Add(int64(n)))
		return min(hi-n, len(jobs)), min(hi, len(jobs))
	}
	failures := make([]error, len(active))
	var wg sync.WaitGroup
	for a, wi := range active {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := workers[wi]
			for ctx.Err() == nil {
				lo, hi := take(w.Capacity())
				if lo == hi {
					return
				}
				res, err := w.Run(ctx, jobs[lo:hi])
				for k := lo; k < hi; k++ {
					r := Result{Job: jobs[k], Skipped: true}
					if k-lo < len(res) {
						r = res[k-lo]
					}
					if r.Skipped && r.Err == nil {
						r.Err = cmp.Or(err, ctx.Err(), fmt.Errorf("remote: worker %s returned the job unexecuted", w.Name()))
					}
					finish(k, r)
				}
				if err != nil && ctx.Err() == nil {
					s.markFailed(wi)
					failures[a] = err
					return
				}
			}
		}()
	}
	wg.Wait()

	failed := errors.Join(failures...)
	if left := min(int(next.Load()), len(jobs)); left < len(jobs) {
		err := ctx.Err()
		if err == nil {
			err = fmt.Errorf("remote: %d jobs undispatched: all %d dispatched workers failed: %w",
				len(jobs)-left, len(active), failed)
		}
		for k := left; k < len(jobs); k++ {
			finish(k, Result{Job: jobs[k], Err: err, Skipped: true})
		}
	}
	return out, failed
}
