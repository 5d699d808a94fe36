package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"power5prio/internal/core"
	"power5prio/internal/fame"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
)

// gatedBackend is a Backend whose first call blocks until gate is
// closed (honouring ctx like the real backends: cancellation returns
// Skipped results), so tests can hold a job in flight while a second
// batch submits it. Results are synthesized — flight behaviour does not
// depend on simulation.
type gatedBackend struct {
	gate    chan struct{} // first call blocks on it when set
	started chan struct{} // closed when the first call begins
	// answer synthesizes call n's (from 1) result for a job; nil
	// answers every job with a plain success.
	answer func(n int, j Job) Result

	once sync.Once
	mu   sync.Mutex
	runs int // RunProgress calls
	jobs int // jobs across all calls
}

func (g *gatedBackend) Name() string { return "gated" }

func (g *gatedBackend) RunProgress(ctx context.Context, jobs []Job, _ func(int, Result)) ([]Result, error) {
	g.mu.Lock()
	g.runs++
	n := g.runs
	g.jobs += len(jobs)
	g.mu.Unlock()
	if n == 1 {
		g.once.Do(func() {
			if g.started != nil {
				close(g.started)
			}
		})
		if g.gate != nil {
			select {
			case <-g.gate:
			case <-ctx.Done():
				out := make([]Result, len(jobs))
				for i, j := range jobs {
					out[i] = Result{Job: j, Err: ctx.Err(), Skipped: true}
				}
				return out, nil
			}
		}
	}
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = Result{Job: j}
		if g.answer != nil {
			out[i] = g.answer(n, j)
		}
	}
	return out, nil
}

func (g *gatedBackend) counts() (runs, jobs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs, g.jobs
}

func flightJob(t *testing.T) Job {
	return Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
}

// waitFor polls cond briefly; flight hand-offs are all channel-driven,
// so this only bridges goroutine scheduling, not simulation time.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// TestFlightCoalescesConcurrentBatches pins the cross-batch
// singleflight: two concurrent batches submitting the same uncached job
// trigger exactly one backend execution; the second batch (and its
// in-batch duplicate) is served from the first batch's flight as cache
// hits.
func TestFlightCoalescesConcurrentBatches(t *testing.T) {
	j := flightJob(t)
	gb := &gatedBackend{gate: make(chan struct{}), started: make(chan struct{})}
	e := NewWith(0, nil, WithBackend(gb))

	var wg sync.WaitGroup
	var resA, resB []Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA = e.Run(nil, []Job{j})
	}()
	<-gb.started

	// The job is now in flight; a second batch with the job (twice)
	// must join rather than re-submit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB = e.Run(nil, []Job{j, j})
	}()
	waitFor(t, func() bool { return e.Stats().Coalesced == 1 }, "batch B to join the flight")
	close(gb.gate)
	wg.Wait()

	if runs, jobs := gb.counts(); runs != 1 || jobs != 1 {
		t.Fatalf("backend saw %d runs / %d jobs, want 1/1 (coalescing failed)", runs, jobs)
	}
	if resA[0].Err != nil || resA[0].Skipped || resA[0].CacheHit {
		t.Fatalf("owner result = %+v, want a plain success", resA[0])
	}
	for i, r := range resB {
		if r.Err != nil || r.Skipped || !r.CacheHit {
			t.Fatalf("joined result %d = %+v, want a cache hit", i, r)
		}
		if r.Pair != resA[0].Pair {
			t.Fatalf("joined result %d differs from the owner's", i)
		}
	}
	st := e.Stats()
	if st.Simulated != 1 || st.Coalesced != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 1 simulated, 1 coalesced, 2 hits", st)
	}
	checkAccounting(t, e)
}

// TestFlightOwnerAbandonedWaiterClaims pins the abandonment hand-off: a
// waiter coalesced onto a flight whose owner's batch is cancelled must
// not inherit the cancellation — it claims the job and runs it itself.
func TestFlightOwnerAbandonedWaiterClaims(t *testing.T) {
	j := flightJob(t)
	gb := &gatedBackend{gate: make(chan struct{}), started: make(chan struct{})}
	e := NewWith(0, nil, WithBackend(gb))

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var wg sync.WaitGroup
	var resA, resB []Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA = e.Run(ctxA, []Job{j})
	}()
	<-gb.started

	wg.Add(1)
	go func() {
		defer wg.Done()
		resB = e.Run(nil, []Job{j})
	}()
	waitFor(t, func() bool { return e.Stats().Coalesced == 1 }, "batch B to join the flight")

	// Cancel the owner: its job resolves Skipped and is not cached.
	// The waiter must claim the job and run it to completion.
	cancelA()
	wg.Wait()

	if !resA[0].Skipped || !errors.Is(resA[0].Err, context.Canceled) {
		t.Fatalf("owner result = %+v, want skipped with the context error", resA[0])
	}
	if resB[0].Err != nil || resB[0].Skipped {
		t.Fatalf("waiter result = %+v, want a completed run after claiming", resB[0])
	}
	if runs, _ := gb.counts(); runs != 2 {
		t.Fatalf("backend saw %d runs, want 2 (owner's cancelled run + waiter's claim)", runs)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.Skipped != 1 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want 1 simulated, 1 skipped, 1 coalesced", st)
	}

	// The claimed result was cached: a fresh submission is a pure hit.
	res := e.Run(nil, []Job{j})
	if !res[0].CacheHit || res[0].Err != nil {
		t.Fatalf("post-claim resubmission = %+v, want a cache hit", res[0])
	}
	checkAccounting(t, e)
}

// TestFlightSequentialBatchesDoNotCoalesce guards the bookkeeping: once
// a batch completes, its flights are unregistered, so a later identical
// submission is served by the cache (a hit), not the flight table.
func TestFlightSequentialBatchesDoNotCoalesce(t *testing.T) {
	j := flightJob(t)
	gb := &gatedBackend{}
	e := NewWith(0, nil, WithBackend(gb))

	if res := e.Run(nil, []Job{j}); res[0].Err != nil {
		t.Fatalf("batch 1: %+v", res[0])
	}
	e.mu.Lock()
	pending := len(e.inflight)
	e.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d flights still registered after the batch completed", pending)
	}
	if res := e.Run(nil, []Job{j}); !res[0].CacheHit {
		t.Fatalf("batch 2 = %+v, want a cache hit", res[0])
	}
	if st := e.Stats(); st.Coalesced != 0 {
		t.Fatalf("sequential batches coalesced: stats %+v", st)
	}
}

// TestFlightOwnerCompletesOnlyItsOwnFlight pins the ownership rule: a
// batch that registered a job's flight completes that flight, not
// whatever flight is registered for the job when its result lands. The
// swap below is what a claimer past maxJoinRetries used to do to a live
// flight; completing the registered flight instead left the joiners of
// the swapped-out one waiting forever.
func TestFlightOwnerCompletesOnlyItsOwnFlight(t *testing.T) {
	j := flightJob(t)
	gb := &gatedBackend{gate: make(chan struct{}), started: make(chan struct{})}
	e := NewWith(0, nil, WithBackend(gb))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Run(nil, []Job{j})
	}()
	<-gb.started

	joined := make(chan []Result, 1)
	go func() { joined <- e.Run(nil, []Job{j}) }()
	waitFor(t, func() bool { return e.Stats().Coalesced == 1 }, "the second batch to join the flight")

	fresh := &flight{done: make(chan struct{})}
	e.mu.Lock()
	own := e.inflight[j]
	e.inflight[j] = fresh
	e.mu.Unlock()

	close(gb.gate)
	select {
	case res := <-joined:
		if res[0].Err != nil || !res[0].CacheHit || !res[0].Coalesced {
			t.Fatalf("joined result = %+v, want a coalesced cache hit", res[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the joiner never returned: its flight was not completed")
	}
	wg.Wait()

	select {
	case <-own.done:
	default:
		t.Error("the owner did not complete the flight it registered")
	}
	select {
	case <-fresh.done:
		t.Error("the owner completed a flight it did not register")
	default:
	}
	e.mu.Lock()
	registered := e.inflight[j]
	e.mu.Unlock()
	if registered != fresh {
		t.Error("the owner unregistered a flight it did not register")
	}
	checkAccounting(t, e)
}

// TestFlightClaimedEstimateDuplicates pins the flag rule for in-batch
// duplicates on the claim path: when a waiter claims an abandoned job
// and the backend answers it from tier 0, the duplicate is an estimate
// like its first occurrence, not a cache hit.
func TestFlightClaimedEstimateDuplicates(t *testing.T) {
	j := flightJob(t)
	const bar = 0.125
	gb := &gatedBackend{
		gate:    make(chan struct{}),
		started: make(chan struct{}),
		answer: func(n int, j Job) Result {
			if n == 1 {
				return Result{Job: j, Err: errors.New("worker lost"), Skipped: true}
			}
			return Result{Job: j, Estimated: true, ErrorBar: bar}
		},
	}
	e := NewWith(0, nil, WithBackend(gb))

	var wg sync.WaitGroup
	var resA, resB []Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA = e.Run(nil, []Job{j})
	}()
	<-gb.started

	wg.Add(1)
	go func() {
		defer wg.Done()
		resB = e.Run(nil, []Job{j, j})
	}()
	waitFor(t, func() bool { return e.Stats().Coalesced == 1 }, "batch B to join the flight")
	close(gb.gate)
	wg.Wait()

	if !resA[0].Skipped {
		t.Fatalf("owner result = %+v, want skipped", resA[0])
	}
	if runs, _ := gb.counts(); runs != 2 {
		t.Fatalf("backend saw %d runs, want 2 (owner's skipped run + waiter's claim)", runs)
	}
	for i, r := range resB {
		if !r.Estimated || r.ErrorBar != bar || r.CacheHit || r.Skipped || r.Err != nil {
			t.Errorf("batch B result %d: Estimated=%v ErrorBar=%v CacheHit=%v Skipped=%v Err=%v, want an estimate with error bar %v and no cache hit",
				i, r.Estimated, r.ErrorBar, r.CacheHit, r.Skipped, r.Err, bar)
		}
	}
	if st := e.Stats(); st.EstimatedHits != 2 || st.Skipped != 1 {
		t.Errorf("stats %+v, want 2 estimated hits, 1 skipped", st)
	}
	checkAccounting(t, e)
}

// tierZeroBackend is a gatedBackend that runs its own tier 0, like a
// p5d client: RunEstimate answers a job whose mode accepts bar with an
// estimate (IPC 42, which no simulation yields) and every other job as
// gatedBackend does. With lie set it estimates every job sent with an
// enabled mode, accepted or not.
type tierZeroBackend struct {
	gatedBackend
	bar  float64
	lie  bool
	sent [][]EstimateMode // modes of each RunEstimate call
}

func (b *tierZeroBackend) RunEstimate(ctx context.Context, jobs []Job, modes []EstimateMode, _ func(int, Result)) ([]Result, error) {
	b.mu.Lock()
	b.sent = append(b.sent, append([]EstimateMode(nil), modes...))
	b.mu.Unlock()
	out, err := b.RunProgress(ctx, jobs, nil)
	for i, m := range modes {
		if !out[i].Skipped && (m.serves(b.bar) || b.lie && m.Enabled) {
			var pair fame.PairResult
			pair.Thread[0] = fame.ThreadResult{Active: true, IPC: 42}
			out[i] = Result{Job: jobs[i], Pair: pair, Estimated: true, ErrorBar: b.bar}
		}
	}
	return out, err
}

func (b *tierZeroBackend) modesSent() [][]EstimateMode {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent
}

// TestFlightEstimateOwnerExactJoiners: joiners that demand exact
// answers — with an explicit off mode, or with no modes at all — on a
// flight whose owner delegated the job to the backend's tier 0 and got
// an estimate back do not receive that estimate: they claim the job and
// get the exact answer.
func TestFlightEstimateOwnerExactJoiners(t *testing.T) {
	j := flightJob(t)
	tb := &tierZeroBackend{gatedBackend: gatedBackend{gate: make(chan struct{}), started: make(chan struct{})}, bar: 0.25}
	e := NewWith(0, nil, WithBackend(tb))

	var wg sync.WaitGroup
	var resA, resB, resC []Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA = e.RunEstimate(nil, []Job{j}, []EstimateMode{EstimateAlways()}, nil)
	}()
	<-tb.started

	wg.Add(2)
	go func() {
		defer wg.Done()
		resB = e.RunEstimate(nil, []Job{j}, []EstimateMode{EstimateOff()}, nil)
	}()
	go func() {
		defer wg.Done()
		resC = e.Run(nil, []Job{j})
	}()
	waitFor(t, func() bool { return e.Stats().Coalesced == 2 }, "batches B and C to join the flight")
	close(tb.gate)
	wg.Wait()

	if !resA[0].Estimated || resA[0].CacheHit {
		t.Fatalf("owner result = %+v, want an uncached estimate", resA[0])
	}
	for name, r := range map[string]Result{"B": resB[0], "C": resC[0]} {
		if r.Err != nil || r.Skipped || r.Estimated || r.Pair.Thread[0].IPC == 42 {
			t.Errorf("exact joiner %s = %+v, want an exact answer", name, r)
		}
	}
	if runs, _ := tb.counts(); runs != 2 {
		t.Errorf("backend saw %d runs, want 2 (the owner's estimate + one claim)", runs)
	}
	if st := e.Stats(); st.EstimatedHits != 1 || st.Simulated != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 estimated, 1 simulated, 1 hit", st)
	}
	checkAccounting(t, e)
}
