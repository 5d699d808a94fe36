package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/remote"
	"power5prio/internal/workload"
)

// skipBackend skips every job (no backend error) for the first `fail`
// runs, then succeeds — the shape of a fleet that is briefly empty
// while workers re-register.
type skipBackend struct {
	mu   sync.Mutex
	fail int
	runs int
	jobs int
}

func (b *skipBackend) Name() string { return "skips" }

func (b *skipBackend) RunProgress(ctx context.Context, jobs []engine.Job, _ func(int, engine.Result)) ([]engine.Result, error) {
	b.mu.Lock()
	b.runs++
	failing := b.runs <= b.fail
	if !failing {
		b.jobs += len(jobs)
	}
	b.mu.Unlock()
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		if failing {
			out[i] = engine.Result{Job: j, Skipped: true}
		} else {
			out[i] = engine.Result{Job: j}
		}
	}
	return out, nil
}

// TestDrainHandsBackQueuedJobs pins the drain contract on the wire: a
// daemon drained mid-batch finishes the in-flight dispatch and
// resolves those jobs normally, hands each never-dispatched job back
// as a skipped result carrying the drain, and ends the stream with
// done.
func TestDrainHandsBackQueuedJobs(t *testing.T) {
	cb := &countingBackend{gate: make(chan struct{}), started: make(chan struct{})}
	d := New(engine.NewWith(0, nil, engine.WithBackend(cb)), nil,
		Config{BatchMax: 2, Dispatchers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Close()

	jobs := svcJobs(5, 0)
	body, _ := json.Marshal(newSubmitRequest("c", nil, jobs))
	resp, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	<-cb.started // batch of 2 in flight, 3 still queued
	d.Drain()
	close(cb.gate)

	var answered, skipped []int
	dec := json.NewDecoder(resp.Body)
	for done := false; !done; {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v (events so far: %d answered, %d skipped)", err, len(answered), len(skipped))
		}
		switch ev.Type {
		case EventResult:
			if ev.Skipped {
				if !strings.Contains(ev.Result.Err, "draining") {
					t.Errorf("drained job %d error = %q, want the drain named", ev.Index, ev.Result.Err)
				}
				skipped = append(skipped, ev.Index)
			} else {
				if ev.Result.Err != "" {
					t.Fatalf("in-flight result = %+v, want clean completion", ev)
				}
				answered = append(answered, ev.Index)
			}
		case EventDone:
			done = true
		}
	}
	sort.Ints(answered)
	sort.Ints(skipped)
	if fmt.Sprint(answered) != "[0 1]" || fmt.Sprint(skipped) != "[2 3 4]" {
		t.Fatalf("answered %v and skipped %v, want the in-flight [0 1] and the queued [2 3 4]", answered, skipped)
	}
	if st := d.Stats(); st.Drained != 3 || st.Requeued != 0 {
		t.Fatalf("stats drained = %d, requeued = %d; want 3 and 0", st.Drained, st.Requeued)
	}

	// A draining daemon refuses new work transiently: 503 + Retry-After.
	resp2, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("submit to draining daemon = %s (Retry-After %q), want 503 with a hint",
			resp2.Status, resp2.Header.Get("Retry-After"))
	}
}

// TestClientResumesAcrossRestart pins the end-to-end graceful-restart
// story: a daemon drains mid-submission, the client receives the
// in-flight results plus the queued jobs handed back skipped, and
// transparently resubmits only those jobs to the restarted daemon —
// every job resolves cleanly, nothing runs twice.
func TestClientResumesAcrossRestart(t *testing.T) {
	cb1 := &countingBackend{gate: make(chan struct{}), started: make(chan struct{})}
	d1 := New(engine.NewWith(0, nil, engine.WithBackend(cb1)), nil,
		Config{BatchMax: 2, Dispatchers: 1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	go d1.Run(ctx1)

	// The "listen address": a front that survives the daemon behind it
	// being torn down and replaced, as a restarted process's port does.
	var front atomic.Value // http.Handler
	front.Store(d1.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	jobs := svcJobs(5, 0)
	var res []engine.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = NewClient(srv.URL, WithClientID("c")).RunProgress(nil, jobs, nil)
	}()

	<-cb1.started // first batch (2 jobs) in flight on daemon 1
	d1.Drain()
	close(cb1.gate) // in-flight batch completes; the rest come back skipped

	// "Restart": a fresh daemon takes over the address.
	cb2 := &countingBackend{}
	d2 := New(engine.NewWith(0, nil, engine.WithBackend(cb2)), nil, Config{})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go d2.Run(ctx2)
	defer d2.Close()
	front.Store(d2.Handler())
	d1.Close()

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("client did not resume to completion within 15s")
	}
	if runErr != nil {
		t.Fatalf("resumed run failed: %v", runErr)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d = %+v, want clean result across the restart", i, r)
		}
	}
	_, n1 := cb1.counts()
	_, n2 := cb2.counts()
	if n1 != 2 || n2 != 3 {
		t.Fatalf("daemon1 ran %d jobs, daemon2 %d; want 2 then exactly the 3 unfinished", n1, n2)
	}
}

// TestBackpressureCap pins satellite behaviour: a client stuck in
// admission backpressure gives up with a clear error once its
// cumulative wait passes the cap, instead of retrying 429s forever.
func TestBackpressureCap(t *testing.T) {
	// No dispatch loops: the queue never drains, so the 429 repeats.
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{MaxQueue: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	cl := NewClient(srv.URL, WithClientID("c"), WithBackpressureCap(500*time.Millisecond))
	start := time.Now()
	res, err := cl.RunProgress(nil, svcJobs(2, 0), nil)
	if err == nil || !strings.Contains(err.Error(), "backpressured for") {
		t.Fatalf("capped run error = %v, want a backpressure give-up", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("give-up took %s, want prompt once the cap is exceeded", elapsed)
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("job %d = %+v, want skipped with the cap error", i, r)
		}
	}
}

// TestRequeueOnSkip pins the hand-back path: a batch the backend skips
// (no error — e.g. a momentarily empty fleet) goes back to the client
// skipped, the client resubmits it, and the resubmission succeeds,
// invisibly to the caller beyond latency. The hand-backs are counted
// in stats.
func TestRequeueOnSkip(t *testing.T) {
	sb := &skipBackend{fail: 1}
	d := New(engine.NewWith(0, nil, engine.WithBackend(sb)), nil, Config{Dispatchers: 1})
	srv := startDaemon(t, d)

	res, err := NewClient(srv.URL, WithClientID("c")).RunProgress(nil, svcJobs(3, 0), nil)
	if err != nil {
		t.Fatalf("run through a skipping backend: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d = %+v, want success after the resubmission", i, r)
		}
	}
	if st := d.Stats(); st.Requeued != 3 {
		t.Fatalf("stats requeued = %d, want 3", st.Requeued)
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.runs != 2 || sb.jobs != 3 {
		t.Fatalf("backend ran %d batches, %d jobs succeeding; want 2 and 3", sb.runs, sb.jobs)
	}
}

// TestDispatchAttemptCap pins the retry bound, which the client owns:
// against a backend that never stops skipping, the daemon hands every
// dispatch back skipped, and RunProgress gives up once its resume
// budget is spent — not a livelock — naming the budget in the error
// and returning the jobs skipped.
func TestDispatchAttemptCap(t *testing.T) {
	sb := &skipBackend{fail: 1 << 30}
	d := New(engine.NewWith(0, nil, engine.WithBackend(sb)), nil, Config{Dispatchers: 1})
	srv := startDaemon(t, d)

	cl := NewClient(srv.URL, WithClientID("c"))
	cl.resumeAttempts = 1
	res, err := cl.RunProgress(nil, svcJobs(2, 0), nil)
	if err == nil || !strings.Contains(err.Error(), "without progress (budget 1;") {
		t.Fatalf("run error = %v, want a give-up naming the resume budget", err)
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("job %d = %+v, want skipped with the give-up error", i, r)
		}
	}
	// The first submission and the one resume the budget allows.
	if st := d.Stats(); st.Requeued != 4 {
		t.Fatalf("stats requeued = %d, want 4 (2 jobs x 2 dispatches)", st.Requeued)
	}
}

// TestJobTimeout pins the per-job execution deadline: a wedged dispatch
// is cut off at the batch-scaled deadline, its jobs go back skipped,
// and the client's resubmission succeeds once the backend behaves.
func TestJobTimeout(t *testing.T) {
	// The gated backend's first run blocks until ctx death (the gate
	// never closes), then skips; subsequent runs succeed instantly.
	cb := &countingBackend{gate: make(chan struct{})}
	d := New(engine.NewWith(0, nil, engine.WithBackend(cb)), nil,
		Config{Dispatchers: 1, JobTimeout: 50 * time.Millisecond})
	srv := startDaemon(t, d)

	start := time.Now()
	res, err := NewClient(srv.URL, WithClientID("c")).RunProgress(nil, svcJobs(2, 0), nil)
	if err != nil {
		t.Fatalf("run through a wedged first dispatch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d = %+v, want success after the deadline hand-back", i, r)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline recovery took %s", elapsed)
	}
	if st := d.Stats(); st.Requeued != 2 {
		t.Fatalf("stats requeued = %d, want 2 (the deadlined batch)", st.Requeued)
	}
}

// TestClientKeepsDeliveredResultsOnGiveUp pins the progress contract
// when a chunk fails part-way: a stream delivers one of two results,
// then every resume drops until the resume budget is spent. The
// delivered result must come back intact, only the undelivered job is
// skipped, and done fires exactly once per index.
func TestClientKeepsDeliveredResultsOnGiveUp(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		enc := json.NewEncoder(w)
		enc.Encode(Event{Type: EventHeader, Protocol: ProtocolVersion, Accepted: len(req.Jobs)})
		if calls.Add(1) == 1 {
			res := remote.WireResult{Key: req.Jobs[0].Key}
			res.Pair.TotalIPC = 1.5
			enc.Encode(Event{Type: EventResult, Index: 0, Result: &res})
		}
		// Returning ends the stream without a trailer: a dropped stream.
	}))
	defer srv.Close()

	cl := NewClient(srv.URL, WithClientID("c"))
	cl.resumeAttempts = 1
	fired := make(map[int]int)
	res, err := cl.RunProgress(nil, svcJobs(2, 0), func(i int, _ engine.Result) { fired[i]++ })
	if err == nil || !strings.Contains(err.Error(), "giving up after") {
		t.Fatalf("run error = %v, want a resume give-up", err)
	}
	if r := res[0]; r.Skipped || r.Err != nil || r.Pair.TotalIPC != 1.5 {
		t.Errorf("delivered result = %+v, want it intact", r)
	}
	if r := res[1]; !r.Skipped || r.Err == nil {
		t.Errorf("undelivered result = %+v, want skipped with the give-up error", r)
	}
	if fired[0] != 1 || fired[1] != 1 {
		t.Errorf("done fired %v, want once per index", fired)
	}
}

// chipJobs builds n distinct tiny co-run jobs (n <= 49) that really
// simulate, so a test can compare served bytes with local execution.
func chipJobs(t *testing.T, n int) []engine.Job {
	t.Helper()
	reg := workload.NewRegistry()
	a, err := reg.Resolve(microbench.CPUInt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Resolve(microbench.LdIntL1)
	if err != nil {
		t.Fatal(err)
	}
	opts := fame.Options{MinReps: 2, WarmupReps: 0, MaxCycles: 50_000_000}
	jobs := make([]engine.Job, n)
	for i := range jobs {
		pp, ps := prio.Level(1+i%7), prio.Level(1+(i/7)%7)
		jobs[i] = engine.Pair(a, b, pp, ps, prio.Supervisor, 0.02, core.DefaultConfig(), opts)
	}
	return jobs
}

// proxy forwards a worker's traffic to target; onRun, when set, decides
// per run request whether to forward it (true) or fail it.
func proxy(t *testing.T, target string, onRun func() bool) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == remote.RunPath && onRun != nil && !onRun() {
			http.Error(w, "injected worker failure", http.StatusInternalServerError)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestWorkerFailureRetry: one of two registered workers fails every
// chunk it takes (its health probe passes, its run requests die). The
// fleet and then the daemon hand the failed chunk back skipped, the
// client resubmits it, the survivor runs it, and every result matches
// local execution byte for byte.
func TestWorkerFailureRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	// One dispatch of 32 jobs is two 16-job chunks, one per worker.
	jobs := chipJobs(t, 2*remote.DefaultMaxInFlight)
	want := engine.New(2).Run(nil, jobs)

	worker := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 2}).Handler())
	defer worker.Close()
	// The good worker's first chunk waits until the bad one has taken
	// the other, so the failure is certain to hit a chunk.
	badRan := make(chan struct{})
	var once sync.Once
	good := proxy(t, worker.URL, func() bool {
		select {
		case <-badRan:
		case <-time.After(10 * time.Second): // fails the Requeued check below
		}
		return true
	})
	bad := proxy(t, worker.URL, func() bool { once.Do(func() { close(badRan) }); return false })

	fleet := remote.NewDynamic()
	eng := engine.NewWith(0, nil, engine.WithBackend(fleet))
	d := New(eng, fleet, Config{Dispatchers: 1})
	srv := startDaemon(t, d)
	for _, addr := range []string{good, bad} {
		if _, err := d.RegisterWorker(context.Background(), addr); err != nil {
			t.Fatal(err)
		}
	}

	got, err := NewClient(srv.URL, WithClientID("c")).RunProgress(nil, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("job %d failed despite a surviving worker: %v", i, got[i].Err)
		}
		if got[i].Pair != want[i].Pair {
			t.Errorf("job %d: result differs from local after the resubmission", i)
		}
	}
	if st := d.Stats(); st.Requeued == 0 {
		t.Error("the failed worker's jobs were not handed back by the daemon")
	}
	if eng.Stats().Remote.WorkerErrors == 0 {
		t.Error("injected worker failure not counted in Remote.WorkerErrors")
	}
}

// TestEmptyFleetRidesOutRegistration: a fleet daemon with no workers
// takes a submission, and its only worker registers 1.5s later. Each
// dispatch before then comes back skipped and goes back to the client,
// whose resume loop outlasts the wait, so the job's result is the one
// local execution gives.
func TestEmptyFleetRidesOutRegistration(t *testing.T) {
	jobs := chipJobs(t, 1)
	want := engine.New(1).Run(nil, jobs)

	fleet := remote.NewDynamic()
	d := New(engine.NewWith(0, nil, engine.WithBackend(fleet)), fleet, Config{})
	srv := startDaemon(t, d)
	worker := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 1}).Handler())
	t.Cleanup(worker.Close)
	registered := make(chan error, 1)
	go func() {
		time.Sleep(1500 * time.Millisecond)
		_, err := d.RegisterWorker(context.Background(), worker.URL)
		registered <- err
	}()

	got, err := NewClient(srv.URL, WithClientID("c")).RunProgress(nil, jobs, nil)
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatalf("run against a fleet that was empty at submission: %v", err)
	}
	if got[0].Err != nil || got[0].Skipped || got[0].Pair != want[0].Pair {
		t.Fatalf("job: err %v, skipped %v, pair %+v; want the local result %+v", got[0].Err, got[0].Skipped, got[0].Pair, want[0].Pair)
	}
	if st := d.Stats(); st.Requeued == 0 {
		t.Error("no dispatch was handed back while the fleet was empty")
	}
}

// TestSharedStoreShortCircuit: a daemon whose cache directory an
// earlier daemon warmed answers every job from disk, and its worker
// receives no run request. The daemon is the only cache owner on the
// serving path; workers keep none.
func TestSharedStoreShortCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	dir := t.TempDir()
	jobs := chipJobs(t, 4)
	worker := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 2}).Handler())
	t.Cleanup(worker.Close)
	var runs atomic.Int32
	counted := proxy(t, worker.URL, func() bool { runs.Add(1); return true })

	// serve starts a fresh daemon on dir with the counted worker and
	// runs the jobs through it.
	serve := func() ([]engine.Result, *Daemon) {
		st, err := cachestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		fleet := remote.NewDynamic()
		d := New(engine.NewWith(0, nil, engine.WithBackend(fleet), engine.WithStore(st)), fleet, Config{})
		srv := startDaemon(t, d)
		if _, err := d.RegisterWorker(context.Background(), counted); err != nil {
			t.Fatal(err)
		}
		res, err := NewClient(srv.URL).RunProgress(nil, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}

	want, d1 := serve()
	cold := runs.Load()
	if s := d1.Stats(); s.Simulated != len(jobs) || cold == 0 {
		t.Fatalf("cold daemon stats %+v after %d run requests, want %d simulated on the worker", s, cold, len(jobs))
	}
	got, d2 := serve()
	for i := range jobs {
		if got[i].Err != nil || !got[i].CacheHit || got[i].Pair != want[i].Pair {
			t.Fatalf("warm daemon job %d = %+v, want the cold answer from its store", i, got[i])
		}
	}
	if s := d2.Stats(); s.Simulated != 0 || s.DiskHits != len(jobs) {
		t.Errorf("warm daemon stats %+v, want 0 simulated / %d disk hits", s, len(jobs))
	}
	if n := runs.Load() - cold; n != 0 {
		t.Errorf("warm daemon sent its worker %d run requests, want 0", n)
	}
}
