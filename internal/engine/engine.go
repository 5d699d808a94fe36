// Package engine is the batch execution engine behind every measurement
// path: experiments, the public System API and the command-line tools all
// describe their simulations as Jobs and submit them in batches. The
// engine memoizes results in a content-keyed cache and hands the unique
// uncached jobs to a pluggable Backend (Name and RunProgress) — the
// in-process worker pool (LocalBackend) by default, a p5d daemon's
// worker fleet (internal/remote), or a daemon client (internal/service)
// that runs the same jobs elsewhere — so a baseline shared by several
// sweeps (e.g. the (4,4) co-run of Figures 2-4, or a benchmark's
// single-thread IPC) is simulated exactly once, wherever execution
// happens.
//
// The cache has two tiers: the in-memory map, and an optional persistent
// store (WithStore) keyed by a stable hash of the full Job, so repeated
// invocations across processes reuse each other's completed work. The
// disk tier verifies per-entry checksums and falls back to recomputing
// (then rewriting) anything corrupt.
//
// Workloads are named through a workload.Registry: a job's kernels are
// identified by fingerprinted workload.Refs, so micro-benchmarks,
// synthetic SPEC stand-ins and user-registered custom kernels co-schedule
// and cache uniformly — a pair may mix families freely.
//
// Batches are context-aware: cancelling the context stops dispatch,
// in-flight jobs run to completion (and are cached), and every job that
// never started returns the context's error. Long sweeps are therefore
// interruptible with partial results, and a retry reuses the completed
// work through the cache.
//
// Determinism: each job builds its own kernels and runs on a fresh chip,
// so a job's result is a pure function of the Job value and the kernel
// content its Refs fingerprint. Batches return bit-identical results for
// any worker count, preserving the paper-reproduction guarantees of the
// serial code path.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// Job describes one independent simulation: a workload pair (or a single
// workload when Secondary is the zero Ref), the priority levels, the chip
// configuration and the FAME measurement options. Job is a comparable
// value type; it is its own cache key — two jobs with equal fields are
// the same measurement, because a Ref's fingerprint pins the kernel
// content it names.
type Job struct {
	Primary   workload.Ref
	Secondary workload.Ref // zero: Primary runs alone in single-thread mode
	PrioP     prio.Level
	PrioS     prio.Level
	Privilege prio.Privilege
	// IterScale shrinks kernel repetition lengths (0 or 1.0 = defaults).
	IterScale float64
	Chip      core.Config
	Fame      fame.Options
}

// Single returns a single-thread job for one workload (the conventional
// placement: priorities (4,4), secondary thread off).
func Single(ref workload.Ref, priv prio.Privilege, iterScale float64, chip core.Config, opts fame.Options) Job {
	return Job{
		Primary: ref,
		PrioP:   prio.Medium, PrioS: prio.Medium,
		Privilege: priv, IterScale: iterScale, Chip: chip, Fame: opts,
	}
}

// Pair returns a co-scheduled job for two workloads at explicit levels.
// The refs may come from different workload families.
func Pair(refP, refS workload.Ref, pp, ps prio.Level, priv prio.Privilege, iterScale float64, chip core.Config, opts fame.Options) Job {
	return Job{
		Primary: refP, Secondary: refS,
		PrioP: pp, PrioS: ps,
		Privilege: priv, IterScale: iterScale, Chip: chip, Fame: opts,
	}
}

// Result pairs a submitted job with its measurement.
//
// A job submitted more than once in a batch runs once: each later
// duplicate gets a copy of the first occurrence's Result with CacheHit
// set to !Skipped && !Estimated and every other flag unchanged.
type Result struct {
	Job Job
	// Pair holds the measurement; for single-thread jobs only Thread[0]
	// is active.
	Pair fame.PairResult
	// Err is the job's failure: a build/validation error, or — with
	// Skipped set — the reason the job never ran.
	Err error
	// CacheHit reports that the job was served from the result cache (a
	// previous batch, or an identical job earlier in this batch).
	CacheHit bool
	// Coalesced reports that the job was served by joining another
	// batch's in-flight computation (cross-batch singleflight) rather
	// than from an already-warm cache tier. Coalesced results also have
	// CacheHit set: the flight publishes to the cache and the waiter is
	// served from it.
	Coalesced bool
	// Skipped reports that the job was never attempted: its batch was
	// cancelled first, or its backend failed. Err carries the cause.
	// Skipped results are never cached — a retry re-runs the job.
	Skipped bool
	// Estimated reports a tier-0 answer: Pair is an analytical model's
	// prediction, not a simulation, and ErrorBar carries the model's
	// expected worst-case absolute IPC error. Estimated results are
	// never cached — they must not alias exact results — so a
	// re-submission with estimation off simulates from scratch.
	Estimated bool
	// ErrorBar is the model uncertainty of an Estimated result (absolute
	// IPC); zero otherwise.
	ErrorBar float64
}

// Stats counts the engine's work across its lifetime.
type Stats struct {
	// Submitted jobs across all Run calls.
	Submitted int
	// Simulated jobs (cache misses that ran on a worker).
	Simulated int
	// Hits served from a cache tier without simulating (in-memory or
	// disk; disk serves are additionally counted in DiskHits).
	Hits int
	// Coalesced jobs joined another batch's in-flight computation of
	// the identical job (cross-batch singleflight) instead of
	// simulating it again. A coalesced job also counts in Hits (or
	// Skipped) when its flight lands.
	Coalesced int
	// Skipped jobs that never started because their batch was cancelled.
	Skipped int
	// DiskHits are lookups served from the persistent store (results
	// computed by an earlier process, or an earlier engine sharing the
	// store). Disk hits also count in Hits.
	DiskHits int
	// DiskMisses are persistent-store probes that found no usable entry
	// (absent, corrupt, or undecodable) and fell through to simulation.
	// Memo misses count here too.
	DiskMisses int
	// DiskWrites are results persisted to the store.
	DiskWrites int
	// EstimatedHits are jobs answered by the tier-0 analytical estimator
	// instead of any cache tier or simulation. Estimated answers are
	// counted here only — never in Hits or Simulated.
	EstimatedHits int
	// EstimatedEscalated are jobs that asked for a tier-0 answer but
	// fell through to the exact path: the model declined them, its error
	// bar exceeded the caller's tolerance, or the tolerance was zero.
	// A job delegated to an EstimateBackend's tier 0 is never counted
	// here; the backend counts its escalations itself.
	EstimatedEscalated int
	// Remote counts work done through a remote backend (all zero on the
	// default local backend).
	Remote RemoteStats
}

// String renders the counters in one line.
func (s Stats) String() string {
	out := fmt.Sprintf("%d jobs submitted, %d simulated, %d cache hits", s.Submitted, s.Simulated, s.Hits)
	if s.Coalesced > 0 {
		out += fmt.Sprintf(", %d coalesced", s.Coalesced)
	}
	if s.Skipped > 0 {
		out += fmt.Sprintf(", %d skipped", s.Skipped)
	}
	if s.EstimatedHits != 0 || s.EstimatedEscalated != 0 {
		out += fmt.Sprintf(", %d estimated (%d escalated)", s.EstimatedHits, s.EstimatedEscalated)
	}
	if s.DiskHits != 0 || s.DiskMisses != 0 || s.DiskWrites != 0 {
		out += fmt.Sprintf("; disk: %d hits, %d misses, %d writes", s.DiskHits, s.DiskMisses, s.DiskWrites)
	}
	if r := s.Remote; r != (RemoteStats{}) {
		out += fmt.Sprintf("; remote: %d jobs, %d retries, %d worker errors", r.Jobs, r.Retries, r.WorkerErrors)
	}
	return out
}

// Engine is a job scheduler with a content-keyed result cache and a
// workload registry that resolves job Refs to kernels. Execution is
// delegated to a pluggable Backend — the in-process worker pool by
// default, or a fleet or daemon client that runs the same jobs on
// other machines with identical results. The zero value is not usable;
// call New. An Engine is safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	backend Backend
	// localWorkers bounds in-process concurrency for work that never
	// reaches the backend (ForEach): with a remote backend, the fleet's
	// size says nothing about how many simulations this machine should
	// run at once.
	localWorkers int
	reg          *workload.Registry
	store        *cachestore.Store
	cache        map[Job]outcome
	// inflight is the cross-batch singleflight table (see flight.go):
	// uncached jobs currently being computed by some batch, so a
	// concurrent batch submitting the same job waits instead of
	// simulating it again.
	inflight map[Job]*flight
	// estimator is the optional tier-0 analytical model (estimate.go);
	// estMode is the default acceptance mode for batches that carry no
	// per-job modes. Both default to off.
	estimator Estimator
	estMode   EstimateMode
	stats     Stats
}

type outcome struct {
	pair fame.PairResult
	err  error
}

// Option configures an engine at construction.
type Option func(*Engine)

// WithStore attaches a persistent result store as the second cache tier
// behind the in-memory map (nil = memory only, the default). Lookups
// that miss in memory probe the store; simulated results are written
// back, so engines — across processes — sharing one store directory
// reuse each other's completed work. Only successful results persist;
// job errors stay in the in-memory tier.
func WithStore(st *cachestore.Store) Option { return func(e *Engine) { e.store = st } }

// WithBackend routes job execution through the given backend instead of
// the default in-process worker pool. The engine's cache tiers sit in
// front of any backend: only unique, uncached jobs reach it, and its
// results are cached exactly like locally simulated ones. Results must
// be — and for the backends in this repository are — bit-identical to
// local execution.
func WithBackend(b Backend) Option { return func(e *Engine) { e.backend = b } }

// New returns an engine bounded to the given number of workers with a
// fresh registry of the built-in workloads; workers <= 0 selects
// GOMAXPROCS (all cores).
func New(workers int) *Engine { return NewWith(workers, nil) }

// NewWith returns an engine using the given workload registry (nil = a
// fresh built-ins-only registry), configured by options. Sharing one
// registry between engines lets them resolve the same custom kernels.
// Without WithBackend, execution runs on a LocalBackend pool of the
// given worker count sharing the engine's registry.
func NewWith(workers int, reg *workload.Registry, opts ...Option) *Engine {
	if reg == nil {
		reg = workload.NewRegistry()
	}
	localWorkers := workers
	if localWorkers <= 0 {
		localWorkers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		localWorkers: localWorkers,
		reg:          reg,
		cache:        make(map[Job]outcome),
		inflight:     make(map[Job]*flight),
	}
	for _, o := range opts {
		o(e)
	}
	if e.backend == nil {
		e.backend = NewLocalBackend(workers, reg)
	}
	return e
}

// Store returns the engine's persistent store (nil when the engine is
// memory-only).
func (e *Engine) Store() *cachestore.Store { return e.store }

// Registry returns the engine's workload registry; register custom
// kernels here to make them resolvable in jobs.
func (e *Engine) Registry() *workload.Registry { return e.reg }

// Backend returns the engine's execution backend.
func (e *Engine) Backend() Backend { return e.backend }

// Stats returns a snapshot of the lifetime counters. On an engine with
// a remote backend, the backend's remote counters are folded in.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	if rs, ok := e.backend.(RemoteStatser); ok {
		s.Remote = rs.RemoteStats()
	}
	return s
}

// Run executes a batch of jobs and returns their results in submission
// order. Duplicate jobs within the batch — and jobs already in the cache
// from earlier batches — are simulated once and fanned back to every
// submitter. Unique uncached jobs execute concurrently on the worker
// pool; results are independent of the worker count.
//
// Cancelling ctx (nil = background) stops dispatching: jobs already
// running finish normally and enter the cache, jobs that never started
// return Results with Err set to the context's error. With one worker,
// the completed jobs form exactly the leading prefix of the batch.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	return e.RunFunc(ctx, jobs, nil)
}

// RunFunc is Run with a per-job progress callback: progress(i, r) fires
// once for every job index as its result becomes final — immediately for
// cache hits, at simulation completion for misses (duplicates resolve
// with their first occurrence), and after the pool drains for jobs
// skipped by cancellation. Calls are serialized; progress must not
// submit to the same engine.
func (e *Engine) RunFunc(ctx context.Context, jobs []Job, progress func(i int, r Result)) []Result {
	return e.RunEstimate(ctx, jobs, nil, progress)
}

// RunEstimate is RunFunc with explicit per-job estimation modes: before
// any cache tier is consulted, each job whose mode can accept a tier-0
// answer is offered to the engine's estimator, and a prediction within
// tolerance is served directly — labelled Estimated, bypassing and
// never entering the caches. Everything else (mode off, τ=0, model
// declined, error bar too wide) escalates to the exact RunFunc path
// unchanged. modes must be nil — every job uses the engine's default
// mode (SetEstimateMode) — or exactly len(jobs) long, where a zero mode
// means off for that job.
//
// An engine with no estimator whose backend is an EstimateBackend
// delegates tier 0 instead: a job whose mode can accept an estimate
// takes the cache tiers and the backend like any other, carrying its
// mode, and only jobs with the same mode share its answer.
func (e *Engine) RunEstimate(ctx context.Context, jobs []Job, modes []EstimateMode, progress func(i int, r Result)) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if modes != nil && len(modes) != len(jobs) {
		panic(fmt.Sprintf("engine: RunEstimate: %d modes for %d jobs", len(modes), len(jobs)))
	}
	out := make([]Result, len(jobs))

	// Tier 0: consult the estimator outside the engine lock (a first
	// sighting of a workload calibrates, which simulates single-thread
	// runs). A job is served here only when its mode accepts the model's
	// error bar; a mode that cannot accept anything (off, τ=0) never
	// consults the estimator at all, so those paths are bit-identical to
	// an engine with no estimator.
	e.mu.Lock()
	est := e.estimator
	defMode := e.estMode
	e.mu.Unlock()
	// backendModes is each job's mode as the backend receives it: nil
	// when the batch sends no modes, otherwise the job's own mode if it
	// is delegated to the backend's tier 0 and exact-only if not.
	var backendModes []EstimateMode
	if _, ok := e.backend.(EstimateBackend); ok && (modes != nil || defMode.Enabled) {
		backendModes = make([]EstimateMode, len(jobs))
	}
	served := make([]bool, len(jobs))
	var estHits, estEscalated []int
	for i, j := range jobs {
		m := defMode
		if modes != nil {
			m = modes[i]
		}
		if !m.Enabled {
			continue
		}
		if est == nil && backendModes != nil && m.canServe() {
			backendModes[i] = m
			continue
		}
		if est == nil || !m.canServe() {
			estEscalated = append(estEscalated, i)
			continue
		}
		ev, ok := est.EstimateJob(j)
		if ok && m.serves(ev.ErrorBar) {
			out[i] = Result{Job: j, Pair: ev.Pair, Estimated: true, ErrorBar: ev.ErrorBar}
			served[i] = true
			estHits = append(estHits, i)
		} else {
			estEscalated = append(estEscalated, i)
		}
	}
	// A delegated job may come back estimated, which only jobs with its
	// mode may share, so its in-batch duplicates are keyed by mode too;
	// every other job's key carries the zero mode.
	keyOf := func(i int) batchKey {
		if backendModes == nil {
			return batchKey{job: jobs[i]}
		}
		return batchKey{job: jobs[i], mode: backendModes[i]}
	}
	modesOf := func(idx ...int) []EstimateMode {
		if backendModes == nil {
			return nil
		}
		ms := make([]EstimateMode, len(idx))
		for k, i := range idx {
			ms[k] = backendModes[i]
		}
		return ms
	}

	// Partition under the lock: memory-cache hits resolve immediately;
	// the first occurrence of each uncached job becomes a candidate —
	// registering a flight so concurrent batches coalesce onto it — or,
	// when a flight for the job is already registered (by another batch,
	// or by this one under another mode), a joiner that waits for that
	// flight instead of re-submitting the job. Later duplicates wait for
	// their first occurrence. followers is read-only once the backend
	// starts.
	e.mu.Lock()
	e.stats.Submitted += len(jobs)
	e.stats.EstimatedHits += len(estHits)
	e.stats.EstimatedEscalated += len(estEscalated)
	var candidates []int
	var flights []*flight
	var joiners []joinWait
	followers := make(map[batchKey][]int)
	var hitIdx []int
	for i, j := range jobs {
		if served[i] {
			continue
		}
		if oc, ok := e.cache[j]; ok {
			out[i] = Result{Job: j, Pair: oc.pair, Err: oc.err, CacheHit: true}
			e.stats.Hits++
			hitIdx = append(hitIdx, i)
			continue
		}
		k := keyOf(i)
		if _, ok := followers[k]; ok {
			followers[k] = append(followers[k], i)
			continue
		}
		followers[k] = []int{}
		if fl, ok := e.inflight[j]; ok {
			joiners = append(joiners, joinWait{idx: i, fl: fl})
			e.stats.Coalesced++
			continue
		}
		fl := &flight{done: make(chan struct{})}
		e.inflight[j] = fl
		candidates = append(candidates, i)
		flights = append(flights, fl)
	}
	e.mu.Unlock()

	var progMu sync.Mutex
	report := func(idx ...int) {
		if progress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		for _, i := range idx {
			progress(i, out[i])
		}
	}
	report(estHits...)
	report(hitIdx...)

	// deliver makes r the final result of batch index idx and copies it
	// to the job's in-batch duplicates, which are cache hits of it
	// unless it was never attempted or is an estimate (estimates are
	// never cached).
	deliver := func(idx int, r Result) {
		out[idx] = r
		dups := followers[keyOf(idx)]
		for _, f := range dups {
			out[f] = r
			out[f].CacheHit = !r.Skipped && !r.Estimated
		}
		report(append([]int{idx}, dups...)...)
	}

	// Joined jobs wait concurrently with this batch's own backend work:
	// each waiter serves its flight's cached outcome when it lands, or
	// claims the job — under its own mode — if the owning batch abandons
	// it or answers with an estimate (see flight.go).
	var joinWG sync.WaitGroup
	for _, jn := range joiners {
		joinWG.Add(1)
		go func(jn joinWait) {
			defer joinWG.Done()
			e.awaitFlight(ctx, jobs[jn.idx], modesOf(jn.idx), jn.fl, len(followers[keyOf(jn.idx)]),
				func(r Result) { deliver(jn.idx, r) })
		}(jn)
	}
	defer joinWG.Wait()

	owned := make([]Job, len(candidates))
	nFollowers := make([]int, len(candidates))
	for k, idx := range candidates {
		owned[k] = jobs[idx]
		nFollowers[k] = len(followers[keyOf(idx)])
	}
	e.execute(ctx, owned, modesOf(candidates...), flights, nFollowers, func(k int, r Result) { deliver(candidates[k], r) })
	return out
}

// batchKey identifies a job's in-batch duplicates: the job, plus its
// mode when the job is delegated to the backend's tier 0.
type batchKey struct {
	job  Job
	mode EstimateMode
}

// execute runs jobs the caller owns — flights[k] is the caller's own
// flight for jobs[k] (see flight.go), nFollowers[k] counts that job's
// in-batch duplicates, and modes (nil, or one per job) are the modes
// the EstimateBackend receives — and hands each job's final result to
// deliver(k, r) exactly once. The persistent tier is probed first,
// outside the engine lock because each probe is file I/O that must not
// stall concurrent batches; the rest run as one backend batch, reported
// live through the backend's done callback and from the returned slice
// (or a synthesized backend-failure result) for anything left over.
func (e *Engine) execute(ctx context.Context, jobs []Job, modes []EstimateMode, flights []*flight, nFollowers []int, deliver func(k int, r Result)) {
	var mu sync.Mutex
	published := make([]bool, len(jobs))
	finish := func(k int, r Result, fromDisk bool) {
		mu.Lock()
		again := published[k]
		published[k] = true
		mu.Unlock()
		if !again {
			deliver(k, e.publish(jobs[k], flights[k], nFollowers[k], r, fromDisk))
		}
	}

	var run []int
	for k, j := range jobs {
		var pair fame.PairResult
		if e.store != nil && e.load(JobKey(j), &pair) {
			finish(k, Result{Pair: pair}, true)
		} else {
			run = append(run, k)
		}
	}
	if len(run) == 0 {
		return
	}

	batch := make([]Job, len(run))
	for i, k := range run {
		batch[i] = jobs[k]
	}
	done := func(i int, r Result) {
		if r.Estimated && modes != nil && !modes[run[i]].serves(r.ErrorBar) {
			r = Result{Job: batch[i], Err: backendError(e.backend, errors.New("estimate outside the job's mode")), Skipped: true}
		}
		finish(run[i], r, false)
	}
	var results []Result
	var err error
	if eb, ok := e.backend.(EstimateBackend); ok && modes != nil {
		batchModes := make([]EstimateMode, len(run))
		for i, k := range run {
			batchModes[i] = modes[k]
		}
		results, err = eb.RunEstimate(ctx, batch, batchModes, done)
	} else {
		results, err = e.backend.RunProgress(ctx, batch, done)
	}
	for i, j := range batch {
		if i < len(results) {
			done(i, results[i])
			continue
		}
		// No result for this job: the backend failed before reaching it.
		if err == nil {
			err = fmt.Errorf("returned %d results for %d jobs", len(results), len(batch))
		}
		done(i, Result{Job: j, Err: backendError(e.backend, err), Skipped: true})
	}
}

// publish records r — job j's answer from the disk tier when fromDisk,
// from the backend otherwise — and returns the final result for j's
// owner. One critical section counts it (nFollowers in-batch
// duplicates included), caches an exact answer in the memory map and
// completes fl, the caller's own flight, so a waiter woken by fl always
// finds the answer, or its absence. A fresh successful simulation is
// then written back to the store.
func (e *Engine) publish(j Job, fl *flight, nFollowers int, r Result, fromDisk bool) Result {
	var final Result
	e.mu.Lock()
	switch {
	case fromDisk:
		final = Result{Job: j, Pair: r.Pair, CacheHit: true}
		e.stats.Hits += 1 + nFollowers
	case r.Skipped:
		// Never attempted (cancellation or backend failure): not cached,
		// so a retry re-runs the job. Completing the flight without a
		// cache entry tells its waiters the job was abandoned; they
		// re-join or claim it (flight.go).
		final = Result{Job: j, Err: r.Err, Skipped: true}
		e.stats.Skipped += 1 + nFollowers
	case r.Estimated:
		// Tier-0 answer produced by the backend (a service daemon
		// running its own estimator). Estimates must never alias exact
		// results, so it is not cached; each waiter on fl claims the job
		// under its own mode, so only a mode that accepts an estimate
		// gets one (from the daemon's tier 0 again, cheaply).
		final = Result{Job: j, Pair: r.Pair, Estimated: true, ErrorBar: r.ErrorBar}
		e.stats.EstimatedHits += 1 + nFollowers
	default:
		final = Result{Job: j, Pair: r.Pair, Err: r.Err}
		e.stats.Simulated++
		e.stats.Hits += nFollowers
	}
	exact := !final.Skipped && !final.Estimated
	if exact {
		e.cache[j] = outcome{pair: final.Pair, err: final.Err}
	}
	e.completeLocked(j, fl)
	e.mu.Unlock()
	if exact && !fromDisk && final.Err == nil && e.store != nil {
		e.save(JobKey(j), final.Pair)
	}
	return final
}

// ForEach runs fn(i) for every i in [0,n) across the engine's worker
// pool and blocks until all dispatched calls return. It is the escape
// hatch for measurement paths that are not plain FAME jobs (e.g. the
// FFT/LU pipeline rows of Table 4): fn must be safe to call concurrently
// and should write its result into a caller-owned slot at index i.
// Cancelling ctx (nil = background) stops dispatching further indices;
// ForEach returns the context's error if any index was skipped.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil
	}
	// ForEach work runs in-process regardless of the execution backend,
	// so it is bounded by the engine's local worker count, not the
	// backend's capacity.
	workers := min(e.localWorkers, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case work <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return err
}

// Execute runs one job to completion on a fresh chip and is the serial
// reference semantics of the engine: Run is defined to return exactly
// what Execute returns for every job. The registry resolves the job's
// workload refs (nil = a fresh built-ins-only registry). Invalid jobs
// return errors rather than panicking so a bad name cannot take down a
// whole batch, and a panic inside the simulation (a configuration that
// validates but cannot be built) is recovered as that job's error, so
// one job never takes down the process that runs it.
func Execute(reg *workload.Registry, j Job) (pair fame.PairResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			pair, err = fame.PairResult{}, fmt.Errorf("engine: job panicked: %v", p)
		}
	}()
	if reg == nil {
		reg = workload.NewRegistry()
	}
	if err := j.Fame.Validate(); err != nil {
		return fame.PairResult{}, err
	}
	if err := j.Chip.Validate(); err != nil {
		return fame.PairResult{}, err
	}
	if j.Primary.IsZero() {
		return fame.PairResult{}, fmt.Errorf("engine: job has no primary workload")
	}
	kp, err := reg.Build(j.Primary, j.IterScale)
	if err != nil {
		return fame.PairResult{}, err
	}
	var ks *isa.Kernel
	if !j.Secondary.IsZero() {
		ks, err = reg.Build(j.Secondary, j.IterScale)
		if err != nil {
			return fame.PairResult{}, err
		}
	}
	ch := core.NewChip(j.Chip)
	ch.PlacePair(kp, ks, j.PrioP, j.PrioS, j.Privilege)
	return fame.Measure(ch, j.Fame), nil
}

// Execute runs one job through the engine's registry without touching
// the cache — the serial reference path for this engine's jobs.
func (e *Engine) Execute(j Job) (fame.PairResult, error) {
	return Execute(e.reg, j)
}

// jobKeySchema versions the meaning of a Job's canonical hash. Bump it
// when simulation semantics change in a way the Job value cannot express
// (so existing persistent entries become unreachable rather than stale).
const jobKeySchema = "power5prio/job/v1"

// JobKey returns the job's persistent cache key: a stable content hash
// over every Job field — workload fingerprints, priority levels,
// privilege, iteration scale, the full chip configuration and the FAME
// options. Two jobs share a key exactly when they describe the same
// measurement; the key is identical across processes, which is what
// makes the disk tier sound. Job is guaranteed hashable by the engine's
// key-stability tests, so JobKey never fails.
func JobKey(j Job) cachestore.Key {
	return cachestore.MustHashValue(jobKeySchema, j)
}

// load decodes key's stored JSON into out, counting the probe in the
// Disk* stats. Corrupt or undecodable entries read as misses and leave
// the store, so the caller recomputes and its write-back restores a
// clean entry.
func (e *Engine) load(key cachestore.Key, out any) bool {
	payload, err := e.store.Get(key)
	ok := err == nil && json.Unmarshal(payload, out) == nil
	if err == nil && !ok {
		e.store.Delete(key) // stored JSON no longer matches out's shape
	}
	e.mu.Lock()
	if ok {
		e.stats.DiskHits++
	} else {
		e.stats.DiskMisses++
	}
	e.mu.Unlock()
	return ok
}

// save persists in as key's JSON, counting a write that lands.
// Persistence is best-effort: a full disk degrades the engine to
// memory-only caching rather than failing the batch.
func (e *Engine) save(key cachestore.Key, in any) {
	payload, err := json.Marshal(in)
	if err != nil || e.store.Put(key, payload) != nil {
		return
	}
	e.mu.Lock()
	e.stats.DiskWrites++
	e.mu.Unlock()
}

// Memo routes a non-Job computation through the persistent tier: the
// escape hatch that makes ForEach-style measurements (e.g. the FFT/LU
// pipeline rows of Table 4) cacheable across processes. keyVal is hashed
// under the caller's schema; on a hit the stored JSON is decoded into
// out and compute is skipped, otherwise compute must fill out, which is
// then persisted. With no store attached, Memo just runs compute.
// Lookups and writes count in the engine's Disk* stats. Memo is safe for
// concurrent use; concurrent calls with the same key may both compute
// (last write wins — results are deterministic, so both are identical).
func (e *Engine) Memo(schema string, keyVal, out any, compute func() error) (hit bool, err error) {
	if e.store == nil {
		return false, compute()
	}
	key, err := cachestore.HashValue(schema, keyVal)
	if err != nil {
		return false, fmt.Errorf("engine: memo key: %w", err)
	}
	if e.load(key, out) {
		return true, nil
	}
	if err := compute(); err != nil {
		return false, err
	}
	e.save(key, out)
	return false, nil
}
