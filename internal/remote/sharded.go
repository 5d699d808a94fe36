package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"power5prio/internal/engine"
)

// ShardedBackend fans a job batch out across a fleet of workers and
// merges the results deterministically: every result lands at its job's
// submission index, and every job's result is a pure function of the
// job, so any fleet size, chunking or failure interleaving produces
// bytes identical to a local run.
//
// Scheduling is work-stealing rather than static: each worker pulls the
// next chunk of at most DefaultMaxInFlight jobs when it becomes free,
// so a fast worker takes more of the batch than a slow one. The fleet
// does not retry: a failed worker's jobs come back Skipped, the p5d
// daemon that owns the fleet hands them back to their client, and the
// client resubmits them. Job-level errors are
// deterministic and are never retried.
//
// Membership follows the workers' own signals. A worker whose run
// fails is marked down and takes no chunks in later batches until
// either its next registration heartbeat (AddWorker) or a successful
// run marks it up again. A run is the only probe: when every worker is
// down, the batch goes to all of them rather than failing unattempted.
type ShardedBackend struct {
	chunk   int // jobs a worker pulls at once: DefaultMaxInFlight (tests lower it)
	mu      sync.Mutex
	workers []Worker // append-only; elements are never replaced
	down    []bool
}

// Worker is one fleet member: a remote worker (HTTPBackend) that runs
// a chunk of jobs and returns one Result per job, in order. A
// worker-level failure is returned as the error, with the chunk's jobs
// Skipped; it marks the worker down.
type Worker interface {
	Name() string
	Run(ctx context.Context, jobs []Job) ([]Result, error)
}

// NewDynamic builds a sharded backend whose fleet may start empty and
// grow at runtime through AddWorker — the shape the p5d daemon's
// worker registration needs. With no workers, batches fail with a
// no-workers error rather than panicking.
func NewDynamic(workers ...Worker) *ShardedBackend {
	return &ShardedBackend{chunk: DefaultMaxInFlight, workers: workers, down: make([]bool, len(workers))}
}

// AddWorker adds w to the fleet. If a worker with the same Name is
// already present, the fleet does not grow: that worker is marked up
// instead, because a re-registering worker is announcing liveness (the
// caller is expected to have health-checked it first — the service's
// registration handler does). It reports whether the fleet grew.
// Batches already running are unaffected; the worker joins scheduling
// from the next batch.
func (s *ShardedBackend) AddWorker(w Worker) bool {
	name := w.Name()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.workers {
		if s.workers[i].Name() == name {
			s.down[i] = false
			return false
		}
	}
	s.workers = append(s.workers, w)
	s.down = append(s.down, false)
	return true
}

// WorkerStatus is a point-in-time snapshot of one worker's membership,
// exposed for service /v1/stats reporting.
type WorkerStatus struct {
	Name     string `json:"name"`
	Excluded bool   `json:"excluded,omitempty"`
}

// WorkerStates snapshots every worker's membership, in fleet order.
func (s *ShardedBackend) WorkerStates() []WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, len(s.workers))
	for i, w := range s.workers {
		out[i] = WorkerStatus{Name: w.Name(), Excluded: s.down[i]}
	}
	return out
}

// snapshot returns the current worker list. The slice is append-only
// and elements are never replaced, so indexing a snapshot stays valid
// while AddWorker grows the fleet concurrently.
func (s *ShardedBackend) snapshot() []Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// eligible returns the worker list and the indices of the workers this
// batch dispatches to: every worker that is up, or the whole fleet when
// every worker is down.
func (s *ShardedBackend) eligible() ([]Worker, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var up, all []int
	for i, down := range s.down {
		all = append(all, i)
		if !down {
			up = append(up, i)
		}
	}
	if len(up) == 0 {
		return s.workers, all
	}
	return s.workers, up
}

// setDown records the outcome of worker i's latest run.
func (s *ShardedBackend) setDown(i int, down bool) {
	s.mu.Lock()
	s.down[i] = down
	s.mu.Unlock()
}

// Name identifies the fleet in diagnostics.
func (s *ShardedBackend) Name() string {
	workers := s.snapshot()
	if len(workers) == 1 {
		return workers[0].Name()
	}
	return fmt.Sprintf("sharded(%d workers)", len(workers))
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

// RunProgress executes the batch across the fleet, reporting each job's
// result as it lands. Workers pull chunks of at most
// DefaultMaxInFlight jobs from a shared cursor until the batch is
// taken. A worker that fails returns its chunk's unfinished jobs
// Skipped with its error, is marked down and takes no more chunks; the chunks nobody has taken go to the
// survivors. Skipped jobs are not retried here: the p5d daemon hands
// them back, and its client owns retries. The batch error joins the
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

	workers, active := s.eligible()
	if len(active) == 0 {
		err := fmt.Errorf("remote: %d jobs undispatched: fleet has no workers (none configured or registered yet)", len(jobs))
		for k := range jobs {
			finish(k, Result{Job: jobs[k], Err: err, Skipped: true})
		}
		return out, err
	}

	// next is the work-stealing cursor: the first job no worker has
	// taken. It only grows, so [min(next, len), len) is what is left.
	var next atomic.Int64
	take := func() (lo, hi int) {
		hi = int(next.Add(int64(s.chunk)))
		return min(hi-s.chunk, len(jobs)), min(hi, len(jobs))
	}
	failures := make([]error, len(active))
	var wg sync.WaitGroup
	for a, wi := range active {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := workers[wi]
			for ctx.Err() == nil {
				lo, hi := take()
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
				if ctx.Err() != nil {
					return
				}
				s.setDown(wi, err != nil)
				if err != nil {
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
