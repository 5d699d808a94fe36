package engine

import (
	"sync"
	"testing"

	"power5prio/internal/cachestore"
	"power5prio/internal/fame"
)

// fakeEstimator serves a recognizable prediction for every pair job and
// counts consultations; IPC 42 cannot come out of a real simulation.
type fakeEstimator struct {
	mu       sync.Mutex
	calls    int
	errorBar float64
	decline  bool
}

func (f *fakeEstimator) EstimateJob(j Job) (Estimate, bool) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	if f.decline || j.Secondary.IsZero() {
		return Estimate{}, false
	}
	var pair fame.PairResult
	pair.Thread[0] = fame.ThreadResult{Active: true, IPC: 42}
	pair.Thread[1] = fame.ThreadResult{Active: true, IPC: 42}
	pair.TotalIPC = 84
	return Estimate{Pair: pair, ErrorBar: f.errorBar}, true
}

func (f *fakeEstimator) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// TestEstimateOffBitIdentical: with estimation off — or at zero
// tolerance — an engine with an estimator attached behaves bit-for-bit
// like one without: same results, untouched estimator, zero estimate
// counters (off) or escalations only (τ=0).
func TestEstimateOffBitIdentical(t *testing.T) {
	jobs := testBatch(t)
	want := New(2).Run(nil, jobs)

	for _, mode := range []EstimateMode{EstimateOff(), EstimateTolerance(0)} {
		est := &fakeEstimator{errorBar: 0.01}
		e := New(2)
		e.SetEstimator(est)
		e.SetEstimateMode(mode)
		got := e.Run(nil, jobs)
		for i := range jobs {
			if got[i].Pair != want[i].Pair || got[i].Estimated || got[i].ErrorBar != 0 {
				t.Errorf("mode %+v job %d: result diverged from seed path: %+v", mode, i, got[i])
			}
		}
		if est.Calls() != 0 {
			t.Errorf("mode %+v: estimator consulted %d times, want 0", mode, est.Calls())
		}
		st := e.Stats()
		if st.EstimatedHits != 0 {
			t.Errorf("mode %+v: %d estimated hits, want 0", mode, st.EstimatedHits)
		}
		if mode.Enabled && st.EstimatedEscalated != len(jobs) {
			t.Errorf("τ=0: %d escalated, want %d", st.EstimatedEscalated, len(jobs))
		}
		if !mode.Enabled && st.EstimatedEscalated != 0 {
			t.Errorf("off: %d escalated, want 0", st.EstimatedEscalated)
		}
	}
}

// TestEstimateAlwaysServes: Always mode serves every pair job from the
// estimator — flagged, with the error bar, without simulating — and
// single-thread jobs (declined by the model) escalate.
func TestEstimateAlwaysServes(t *testing.T) {
	jobs := testBatch(t) // 2 singles, 3 pairs, 2 duplicates (1 single, 1 pair)
	est := &fakeEstimator{errorBar: 0.25}
	e := New(2)
	e.SetEstimator(est)
	e.SetEstimateMode(EstimateAlways())
	res := e.Run(nil, jobs)

	nEst, nExact := 0, 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Job.Secondary.IsZero() {
			nExact++
			if r.Estimated || r.Pair.Thread[0].IPC == 42 {
				t.Errorf("single-thread job %d served an estimate: %+v", i, r)
			}
			continue
		}
		nEst++
		if !r.Estimated || r.ErrorBar != 0.25 || r.Pair.Thread[0].IPC != 42 {
			t.Errorf("pair job %d not served by tier 0: %+v", i, r)
		}
		if r.CacheHit || r.Coalesced {
			t.Errorf("estimated job %d flagged as cache hit", i)
		}
	}
	if nEst != 4 || nExact != 3 {
		t.Fatalf("%d estimated / %d exact results, want 4/3", nEst, nExact)
	}
	st := e.Stats()
	if st.EstimatedHits != 4 || st.EstimatedEscalated != 3 {
		t.Errorf("stats %+v, want 4 estimated hits, 3 escalated", st)
	}
	if st.Hits != 1 || st.Simulated != 2 {
		t.Errorf("stats %+v, want the exact path untouched by estimates (1 hit, 2 simulated)", st)
	}
	checkAccounting(t, e)
}

// TestEstimateNeverCached: an estimated answer lands in no cache tier —
// not the memory map, not the persistent store under the job's plain
// key — so turning estimation off re-simulates from scratch.
func TestEstimateNeverCached(t *testing.T) {
	st, err := cachestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testBatch(t)[2:5] // the three unique pair jobs
	est := &fakeEstimator{errorBar: 0.25}
	e := NewWith(2, nil, WithStore(st))
	e.SetEstimator(est)
	e.SetEstimateMode(EstimateAlways())

	res := e.Run(nil, jobs)
	for i, r := range res {
		if !r.Estimated {
			t.Fatalf("job %d not estimated: %+v", i, r)
		}
		if _, gerr := st.Get(JobKey(jobs[i])); gerr == nil {
			t.Errorf("estimated job %d present in the persistent store", i)
		}
	}
	if s := e.Stats(); s.DiskWrites != 0 || s.Simulated != 0 {
		t.Fatalf("estimated batch touched the exact tiers: %+v", s)
	}

	// The same engine with estimation off: everything simulates — the
	// estimates poisoned nothing — and results match a clean engine.
	e.SetEstimateMode(EstimateOff())
	exact := e.Run(nil, jobs)
	want := New(2).Run(nil, jobs)
	for i := range jobs {
		if exact[i].CacheHit || exact[i].Estimated {
			t.Errorf("post-estimate exact job %d served from a cache: %+v", i, exact[i])
		}
		if exact[i].Pair != want[i].Pair {
			t.Errorf("job %d: post-estimate exact result differs from clean engine", i)
		}
	}
	if s := e.Stats(); s.Simulated != len(jobs) || s.DiskWrites != len(jobs) {
		t.Errorf("exact re-run stats %+v, want %d simulated and persisted", s, len(jobs))
	}
}

// TestEstimateTolerance: the error bar gates acceptance — τ above the
// bar serves, τ below escalates to simulation.
func TestEstimateTolerance(t *testing.T) {
	jobs := testBatch(t)[2:3] // one pair job
	for _, tc := range []struct {
		tol   float64
		serve bool
	}{
		{0.5, true}, {0.25, true}, {0.1, false},
	} {
		est := &fakeEstimator{errorBar: 0.25}
		e := New(1)
		e.SetEstimator(est)
		e.SetEstimateMode(EstimateTolerance(tc.tol))
		r := e.Run(nil, jobs)[0]
		if r.Estimated != tc.serve {
			t.Errorf("τ=%v: Estimated=%v, want %v", tc.tol, r.Estimated, tc.serve)
		}
		if est.Calls() != 1 {
			t.Errorf("τ=%v: estimator consulted %d times, want 1", tc.tol, est.Calls())
		}
		if wantSim := 0; tc.serve {
			if e.Stats().Simulated != wantSim {
				t.Errorf("τ=%v: simulated despite serving", tc.tol)
			}
		} else if e.Stats().EstimatedEscalated != 1 {
			t.Errorf("τ=%v: escalation not counted: %+v", tc.tol, e.Stats())
		}
	}
}

// TestEstimateDecline: a declining estimator escalates every job to the
// exact path.
func TestEstimateDecline(t *testing.T) {
	jobs := testBatch(t)
	est := &fakeEstimator{decline: true}
	e := New(2)
	e.SetEstimator(est)
	e.SetEstimateMode(EstimateAlways())
	res := e.Run(nil, jobs)
	want := New(2).Run(nil, jobs)
	for i := range jobs {
		if res[i].Estimated || res[i].Pair != want[i].Pair {
			t.Errorf("job %d: declined estimate still altered the result", i)
		}
	}
	if s := e.Stats(); s.EstimatedHits != 0 || s.EstimatedEscalated != len(jobs) {
		t.Errorf("stats %+v, want all %d escalated", s, len(jobs))
	}
}

// TestRunEstimatePerJobModes: explicit per-job modes override the
// engine default independently per index, and a modes slice of the
// wrong length panics.
func TestRunEstimatePerJobModes(t *testing.T) {
	jobs := testBatch(t)[2:5] // three unique pair jobs
	est := &fakeEstimator{errorBar: 0.25}
	e := New(2)
	e.SetEstimator(est)
	// Engine default stays off; only job 1 opts in.
	modes := []EstimateMode{EstimateOff(), EstimateAlways(), EstimateTolerance(0.1)}
	res := e.RunEstimate(nil, jobs, modes, nil)
	if res[0].Estimated || res[2].Estimated {
		t.Errorf("jobs with off/tight modes were estimated: %+v, %+v", res[0], res[2])
	}
	if !res[1].Estimated {
		t.Errorf("job with Always mode not estimated: %+v", res[1])
	}
	if s := e.Stats(); s.EstimatedHits != 1 || s.EstimatedEscalated != 1 {
		t.Errorf("stats %+v, want 1 estimated, 1 escalated (off-mode job not counted)", s)
	}

	defer func() {
		if recover() == nil {
			t.Error("RunEstimate accepted a modes slice of the wrong length")
		}
	}()
	e.RunEstimate(nil, jobs, modes[:1], nil)
}

// TestEstimateWithoutEstimator: opting in on an engine with no
// estimator attached escalates cleanly instead of failing.
func TestEstimateWithoutEstimator(t *testing.T) {
	jobs := testBatch(t)[2:3]
	e := New(1)
	e.SetEstimateMode(EstimateAlways())
	r := e.Run(nil, jobs)[0]
	if r.Err != nil || r.Estimated {
		t.Fatalf("estimator-less engine: %+v", r)
	}
	if s := e.Stats(); s.EstimatedEscalated != 1 || s.Simulated != 1 {
		t.Errorf("stats %+v, want 1 escalated, 1 simulated", s)
	}
}

// TestDelegatedEstimateModes: an engine without an estimator whose
// backend runs its own tier 0 sends each job with its mode, and no job
// gets an estimate its own mode rejects — not even from an in-batch
// duplicate under another mode, which claims the job instead.
func TestDelegatedEstimateModes(t *testing.T) {
	j := testBatch(t)[2]
	tb := &tierZeroBackend{bar: 0.25}
	e := NewWith(0, nil, WithBackend(tb))
	res := e.RunEstimate(nil, []Job{j, j, j}, []EstimateMode{EstimateAlways(), EstimateOff(), EstimateAlways()}, nil)

	if !res[0].Estimated || res[0].ErrorBar != 0.25 || res[0].CacheHit {
		t.Errorf("Always job = %+v, want an uncached estimate", res[0])
	}
	if r := res[1]; r.Err != nil || r.Estimated || r.CacheHit || r.Pair.Thread[0].IPC == 42 {
		t.Errorf("off job = %+v, want an exact answer that is not a cache hit", r)
	}
	if !res[2].Estimated || res[2].CacheHit {
		t.Errorf("duplicate Always job = %+v, want the first occurrence's estimate", res[2])
	}
	sent := tb.modesSent()
	if len(sent) != 2 || len(sent[0]) != 1 || sent[0][0] != EstimateAlways() || len(sent[1]) != 1 || sent[1][0] != EstimateOff() {
		t.Errorf("backend received modes %+v, want [[always] [off]]", sent)
	}
	if st := e.Stats(); st.EstimatedHits != 2 || st.Simulated != 1 || st.EstimatedEscalated != 0 {
		t.Errorf("stats %+v, want 2 estimated, 1 simulated, none escalated locally", st)
	}
	checkAccounting(t, e)

	// A backend that answers outside a job's mode fails that job
	// instead of serving the estimate.
	j2 := testBatch(t)[3]
	liar := NewWith(0, nil, WithBackend(&tierZeroBackend{bar: 0.25, lie: true}))
	r := liar.RunEstimate(nil, []Job{j2}, []EstimateMode{EstimateTolerance(0.1)}, nil)[0]
	if r.Estimated || !r.Skipped || r.Err == nil {
		t.Errorf("estimate outside the job's mode = %+v, want a skipped backend failure", r)
	}
	checkAccounting(t, liar)
}
