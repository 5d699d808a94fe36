package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"power5prio/internal/workload"
)

// Backend executes batches of jobs on behalf of an Engine. The engine
// owns everything above execution — deduplication, the two cache tiers,
// stats, progress fan-out — and hands a backend only the unique jobs
// that actually need to run. The in-process worker pool (LocalBackend)
// is the reference implementation; internal/remote adds HTTP-speaking
// backends that run the same jobs on other machines. Because a job's
// result is a pure function of the Job value, every backend must return
// bit-identical results for the same job — which is what lets backends
// be swapped, sharded and retried freely.
//
// Contract: RunProgress returns one Result per job, in submission
// order, and may report each job's result early through done (which
// may be nil): at most one call per index, from any goroutine, every
// call returned before RunProgress returns; indices it never reports
// are taken from the returned slice. The engine uses done to fire user
// progress callbacks as results land instead of at batch end, and a
// backend may ignore it. Job failures (bad workload name, invalid
// config) are reported in Result.Err, never as the returned error,
// which is reserved for backend-level failures (e.g. every remote
// worker unreachable). Jobs that were never attempted — the batch
// context was cancelled, or the backend failed first — must carry
// Skipped set so the engine does not cache their errors. A backend
// must be safe for concurrent calls.
type Backend interface {
	// Name identifies the backend in diagnostics.
	Name() string
	// RunProgress executes jobs and returns their results in order.
	RunProgress(ctx context.Context, jobs []Job, done func(i int, r Result)) ([]Result, error)
}

// EstimateBackend is optionally implemented by backends that run their
// own tier 0 (a p5d daemon client). An engine with no estimator of its
// own delegates estimation to such a backend: jobs whose mode can
// accept an estimate reach it carrying that mode instead of escalating
// locally. RunEstimate is RunProgress with a mode per job: modes[i] is
// jobs[i]'s acceptance mode, and the zero mode demands an exact answer.
// A backend may answer jobs[i] with an Estimated result only when
// modes[i] serves its ErrorBar; the engine counts an estimate outside
// its job's mode as a backend failure. The engine calls RunEstimate
// only for batches that carry per-job modes or run under an enabled
// default mode, and RunProgress otherwise.
type EstimateBackend interface {
	Backend
	RunEstimate(ctx context.Context, jobs []Job, modes []EstimateMode, done func(i int, r Result)) ([]Result, error)
}

// RemoteStats counts work done through remote backends; see Stats.
type RemoteStats struct {
	// Jobs answered over the wire: run by a fleet worker, which keeps no
	// cache, or delivered by a p5d daemon from any of its tiers.
	Jobs int
	// Retries are jobs resubmitted to a p5d daemon after backpressure,
	// a skipped hand-back, or a dropped or stalled stream.
	Retries int
	// WorkerErrors are worker-level failures observed (unreachable,
	// bad protocol, non-2xx responses) — on a fleet, each marks the
	// worker down until its next heartbeat or successful run.
	WorkerErrors int
}

// RemoteStatser is implemented by backends that track RemoteStats; the
// engine folds the counters into its Stats snapshot.
type RemoteStatser interface {
	RemoteStats() RemoteStats
}

// LocalBackend is the in-process execution backend: a bounded worker
// pool running jobs on fresh simulated chips via Execute. It is the
// engine's default backend and the reference semantics every other
// backend must match bit-for-bit.
//
// The pool bound is global across concurrent RunProgress calls:
// however many batches are in flight (concurrent engine batches in one
// process, or concurrent requests on a p5worker), at most workers
// simulations execute at once.
type LocalBackend struct {
	sem chan struct{} // pool tokens, shared by every RunProgress call
	reg *workload.Registry
}

// NewLocalBackend returns a local pool bounded to workers goroutines
// (<= 0 selects GOMAXPROCS), resolving job refs in reg (nil = a fresh
// built-ins-only registry).
func NewLocalBackend(workers int, reg *workload.Registry) *LocalBackend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = workload.NewRegistry()
	}
	return &LocalBackend{sem: make(chan struct{}, workers), reg: reg}
}

// Name identifies the backend.
func (b *LocalBackend) Name() string { return "local" }

// RunProgress executes each job exactly once, reporting results as
// they land. Jobs start in submission order, each gated on a pool
// token shared across every call on this backend. Cancelling ctx stops
// dispatch: in-flight jobs run to completion, jobs that never started
// return Skipped results carrying the context's error (with one worker,
// the completed jobs form exactly the leading prefix of the batch).
// The returned error is always nil: the local pool has no
// backend-level failure mode.
func (b *LocalBackend) RunProgress(ctx context.Context, jobs []Job, done func(i int, r Result)) ([]Result, error) {
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

	completed := make([]bool, len(jobs))
	var wg sync.WaitGroup
dispatch:
	for k := range jobs {
		if ctx.Err() != nil {
			break
		}
		select {
		case b.sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-b.sem }()
			pair, err := Execute(b.reg, jobs[k])
			completed[k] = true
			finish(k, Result{Job: jobs[k], Pair: pair, Err: err})
		}(k)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for k := range jobs {
			if !completed[k] {
				finish(k, Result{Job: jobs[k], Err: err, Skipped: true})
			}
		}
	}
	return out, nil
}

// backendError wraps a backend-level failure for the jobs it stranded.
func backendError(b Backend, err error) error {
	return fmt.Errorf("engine: backend %s: %w", b.Name(), err)
}
