package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/mem"
	"power5prio/internal/remote"
)

// countingBackend synthesizes results instantly (daemon tests exercise
// scheduling, not simulation). When gate is set, the first call blocks
// until it closes, holding a batch in flight.
type countingBackend struct {
	gate    chan struct{}
	started chan struct{}

	once sync.Once
	mu   sync.Mutex
	runs int
	jobs int
}

func (b *countingBackend) Name() string { return "counting" }

func (b *countingBackend) RunProgress(ctx context.Context, jobs []engine.Job, _ func(int, engine.Result)) ([]engine.Result, error) {
	b.mu.Lock()
	b.runs++
	first := b.runs == 1
	b.jobs += len(jobs)
	b.mu.Unlock()
	if first && b.gate != nil {
		b.once.Do(func() {
			if b.started != nil {
				close(b.started)
			}
		})
		select {
		case <-b.gate:
		case <-ctx.Done():
			out := make([]engine.Result, len(jobs))
			for i, j := range jobs {
				out[i] = engine.Result{Job: j, Err: ctx.Err(), Skipped: true}
			}
			return out, nil
		}
	}
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = engine.Result{Job: j}
	}
	return out, nil
}

func (b *countingBackend) counts() (runs, jobs int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs, b.jobs
}

// svcJobs builds placeholder jobs distinct per (base, index); the
// counting backend never simulates them.
func svcJobs(n int, base float64) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i].IterScale = base + float64(i)
	}
	return jobs
}

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

// startDaemon runs the dispatch loops and an HTTP front end for the
// test's lifetime.
func startDaemon(t *testing.T, d *Daemon) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go d.Run(ctx)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
		cancel()
	})
	return srv
}

// TestAdmissionControl pins the queue bound: a submission that would
// overflow it is rejected wholesale with ErrQueueFull, one that fits
// exactly is admitted, and rejections are counted.
func TestAdmissionControl(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{MaxQueue: 4})

	if _, err := d.enqueue("a", svcJobs(3, 0), engine.EstimateMode{}); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	if _, err := d.enqueue("b", svcJobs(2, 100), engine.EstimateMode{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", err)
	}
	if _, err := d.enqueue("b", svcJobs(1, 100), engine.EstimateMode{}); err != nil {
		t.Fatalf("fitting submission rejected: %v", err)
	}
	st := d.Stats()
	if st.QueueDepth != 4 || st.Rejected != 1 || st.Tenants != 2 {
		t.Fatalf("stats %+v, want depth 4, 1 rejected, 2 tenants", st)
	}
}

// TestNoRunnableJobsNoTenant: a submission that queues nothing — an
// empty job list, or one whose every key drifted — registers no
// tenant, so untrusted client IDs cannot grow an idle daemon's tenant
// table.
func TestNoRunnableJobsNoTenant(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	srv := startDaemon(t, d)
	for _, client := range []string{"a", "b", "c"} {
		drifted := newSubmitRequest(client, nil, svcJobs(1, 0))
		drifted.Jobs[0].Key = "sha256:0000"
		for _, req := range []SubmitRequest{newSubmitRequest(client, nil, nil), drifted} {
			body, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("client %s, %d jobs: status %s, want 200", client, len(req.Jobs), resp.Status)
			}
		}
	}
	if st := d.Stats(); st.Tenants != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want 0 tenants and an empty queue", st)
	}
}

// TestWeightedRoundRobin pins fairness: with a bulk tenant and an
// interactive tenant queued, one batch interleaves them at the
// configured weight — the bulk sweep cannot starve the small query.
func TestWeightedRoundRobin(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil,
		Config{Weight: 2, BatchMax: 6})

	if _, err := d.enqueue("bulk", svcJobs(10, 100), engine.EstimateMode{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.enqueue("tui", svcJobs(2, 200), engine.EstimateMode{}); err != nil {
		t.Fatal(err)
	}

	batch := d.nextBatch(context.Background())
	var got []float64
	for _, it := range batch {
		got = append(got, it.job.IterScale)
	}
	want := []float64{100, 101, 200, 201, 102, 103}
	if len(got) != len(want) {
		t.Fatalf("batch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v, want %v (weighted round-robin order)", got, want)
		}
	}

	// The interactive tenant drained; the rest of the queue is bulk's.
	batch = d.nextBatch(context.Background())
	if len(batch) != 6 {
		t.Fatalf("second batch has %d jobs, want 6", len(batch))
	}
	for _, it := range batch {
		if it.job.IterScale >= 200 {
			t.Fatalf("drained tenant reappeared in batch: %v", it.job.IterScale)
		}
	}
	if st := d.Stats(); st.QueueDepth != 0 || st.Tenants != 0 {
		t.Fatalf("stats after draining = %+v, want empty queue and no tenants", st)
	}
}

// TestServiceEndToEnd runs the full HTTP path: an engine behind a
// service client submits a batch (with duplicates) to a daemon, gets
// results identical to the backend's, and a second client's identical
// batch is served entirely from the daemon's cache.
func TestServiceEndToEnd(t *testing.T) {
	cb := &countingBackend{}
	d := New(engine.NewWith(0, nil, engine.WithBackend(cb)), nil, Config{})
	srv := startDaemon(t, d)

	jobs := append(svcJobs(5, 0), svcJobs(2, 0)...) // 7 jobs, 5 unique
	eng1 := engine.NewWith(0, nil, engine.WithBackend(NewClient(srv.URL, WithClientID("c1"))))
	res := eng1.Run(nil, jobs)
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d: %+v", i, r)
		}
	}
	if _, n := cb.counts(); n != 5 {
		t.Fatalf("backend simulated %d jobs, want 5 unique", n)
	}

	// A different client, same jobs: all served from the daemon's
	// cache — nothing new reaches the backend, and the results carry
	// the daemon-side cached flag.
	eng2 := engine.NewWith(0, nil, engine.WithBackend(NewClient(srv.URL, WithClientID("c2"))))
	res2 := eng2.Run(nil, jobs)
	for i, r := range res2 {
		if r.Err != nil || r.Skipped {
			t.Fatalf("warm job %d: %+v", i, r)
		}
		if r.Pair != res[i].Pair {
			t.Fatalf("warm job %d differs from cold run", i)
		}
	}
	if _, n := cb.counts(); n != 5 {
		t.Fatalf("warm pass reached the backend: %d jobs total, want 5", n)
	}
	st := d.Stats()
	if st.Simulated != 5 || st.Hits == 0 {
		t.Fatalf("daemon stats %+v, want 5 simulated with cache hits", st)
	}
}

// TestCrossClientDedup pins the service-level singleflight: two
// clients submitting the same uncached job concurrently trigger one
// backend execution, and the coalescing is visible in /v1/stats.
func TestCrossClientDedup(t *testing.T) {
	cb := &countingBackend{gate: make(chan struct{}), started: make(chan struct{})}
	d := New(engine.NewWith(0, nil, engine.WithBackend(cb)), nil, Config{Dispatchers: 2})
	srv := startDaemon(t, d)

	job := svcJobs(1, 42)

	var wg sync.WaitGroup
	var res1, res2 []engine.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		res1, _ = NewClient(srv.URL, WithClientID("c1")).RunProgress(nil, job, nil)
	}()
	<-cb.started // client 1's job is now in flight on the backend

	wg.Add(1)
	go func() {
		defer wg.Done()
		res2, _ = NewClient(srv.URL, WithClientID("c2")).RunProgress(nil, job, nil)
	}()
	waitFor(t, func() bool { return d.Stats().Coalesced == 1 }, "client 2 to coalesce onto the flight")
	close(cb.gate)
	wg.Wait()

	if res1[0].Err != nil || res2[0].Err != nil {
		t.Fatalf("results: %+v / %+v", res1[0], res2[0])
	}
	if runs, jobs := cb.counts(); runs != 1 || jobs != 1 {
		t.Fatalf("backend saw %d runs / %d jobs, want 1/1", runs, jobs)
	}

	// The coalescing is externally observable.
	resp, err := http.Get(srv.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Coalesced != 1 || st.Simulated != 1 {
		t.Fatalf("/v1/stats = %+v, want 1 coalesced, 1 simulated", st)
	}
	// The per-client breakdown tells the two tenants apart: c1's job
	// simulated, c2 joined c1's in-flight simulation (a coalesced join,
	// not a warm-store hit — the answer did not exist when c2 asked).
	if len(st.Clients) != 2 {
		t.Fatalf("/v1/stats clients = %+v, want c1 and c2", st.Clients)
	}
	if c1 := st.Clients[0]; c1.Client != "c1" || c1.Jobs != 1 || c1.Simulated != 1 {
		t.Fatalf("c1 breakdown = %+v, want 1 simulated job", c1)
	}
	if c2 := st.Clients[1]; c2.Client != "c2" || c2.Jobs != 1 || c2.Coalesced != 1 || c2.StoreHits != 0 {
		t.Fatalf("c2 breakdown = %+v, want 1 coalesced join and no store hits", c2)
	}
}

// tierZero estimates every job with a fixed error bar and a
// recognizable IPC — the service tests exercise routing and counters,
// not the model (internal/analytic has its own tests).
type tierZero struct{ bar float64 }

func (e *tierZero) EstimateJob(engine.Job) (engine.Estimate, bool) {
	var pair fame.PairResult
	pair.Thread[0] = fame.ThreadResult{Active: true, IPC: 7}
	pair.TotalIPC = 7
	return engine.Estimate{Pair: pair, ErrorBar: e.bar}, true
}

// TestServiceEstimate pins the tier-0 path across the wire: a client
// opting in gets flagged predictions without touching the backend, the
// estimates poison no cache (an exact client re-simulates the same
// jobs), a too-tight tolerance escalates, an explicit opt-out
// overrides a daemon defaulting to estimation, and /v1/stats breaks
// the answer tiers down per client.
func TestServiceEstimate(t *testing.T) {
	cb := &countingBackend{}
	eng := engine.NewWith(0, nil, engine.WithBackend(cb))
	eng.SetEstimator(&tierZero{bar: 0.25})
	d := New(eng, nil, Config{})
	srv := startDaemon(t, d)

	jobs := svcJobs(3, 0)
	// every gives each of n jobs the same mode.
	every := func(m engine.EstimateMode, n int) []engine.EstimateMode {
		modes := make([]engine.EstimateMode, n)
		for i := range modes {
			modes[i] = m
		}
		return modes
	}

	// c1 accepts any estimate: flagged results with the model's error
	// bar, and zero backend traffic.
	res, err := NewClient(srv.URL, WithClientID("c1")).RunEstimate(nil, jobs, every(engine.EstimateAlways(), len(jobs)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Estimated || r.ErrorBar != 0.25 || r.Pair.TotalIPC != 7 || r.CacheHit {
			t.Fatalf("job %d not served by tier 0: %+v", i, r)
		}
	}
	if _, n := cb.counts(); n != 0 {
		t.Fatalf("estimated batch reached the backend: %d jobs", n)
	}

	// c2 rides the daemon default (off): the same jobs simulate — the
	// estimates were cached nowhere.
	res2, err := NewClient(srv.URL, WithClientID("c2")).RunProgress(nil, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res2 {
		if r.Err != nil || r.Estimated || r.Pair.TotalIPC == 7 {
			t.Fatalf("exact job %d tainted by tier 0: %+v", i, r)
		}
	}
	if _, n := cb.counts(); n != 3 {
		t.Fatalf("exact batch simulated %d jobs, want 3", n)
	}

	// c3's tolerance is below the model's bar: every job escalates to
	// the exact path, which the now-warm cache serves.
	res3, err := NewClient(srv.URL, WithClientID("c3")).RunEstimate(nil, jobs, every(engine.EstimateTolerance(0.1), len(jobs)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res3 {
		if r.Estimated || !r.CacheHit {
			t.Fatalf("escalated job %d = %+v, want a warm-store hit", i, r)
		}
	}

	// Flip the daemon default to estimation: a default-riding client
	// now gets estimates, but an explicit opt-out still gets exact
	// answers.
	eng.SetEstimateMode(engine.EstimateAlways())
	jobs2 := svcJobs(2, 50)
	res4, err := NewClient(srv.URL, WithClientID("c4")).RunProgress(nil, jobs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res4[0].Estimated || !res4[1].Estimated {
		t.Fatalf("default-riding client missed the daemon's Always default: %+v", res4)
	}
	res5, err := NewClient(srv.URL, WithClientID("c5")).RunEstimate(nil, jobs2, every(engine.EstimateOff(), len(jobs2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res5[0].Estimated || res5[1].Estimated {
		t.Fatalf("explicit opt-out still got estimates: %+v", res5)
	}

	// The stats surface the whole story, per tier and per client.
	resp, err := http.Get(srv.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Escalations: c3's 3 tolerance misses plus c5's 2 — an explicit
	// opt-out is τ=0, which by contract is "off plus an escalation
	// count".
	if st.EstimatedHits != 5 || st.EstimatedEscalated != 5 {
		t.Fatalf("/v1/stats = %+v, want 5 estimated hits (c1+c4), 5 escalated (c3+c5)", st)
	}
	want := []ClientStats{
		{Client: "c1", Jobs: 3, Estimated: 3},
		{Client: "c2", Jobs: 3, Simulated: 3},
		{Client: "c3", Jobs: 3, StoreHits: 3},
		{Client: "c4", Jobs: 2, Estimated: 2},
		{Client: "c5", Jobs: 2, Simulated: 2},
	}
	if len(st.Clients) != len(want) {
		t.Fatalf("/v1/stats clients = %+v, want %+v", st.Clients, want)
	}
	for i, w := range want {
		if st.Clients[i] != w {
			t.Errorf("client breakdown[%d] = %+v, want %+v", i, st.Clients[i], w)
		}
	}
}

// TestClientRunEstimate: a batch mixing modes reaches the daemon as one
// submission per distinct mode, each with its explicit spec, so every
// job gets the answer its own mode accepts — never the daemon's
// spec-less default — reported once, at its own index.
func TestClientRunEstimate(t *testing.T) {
	cb := &countingBackend{}
	eng := engine.NewWith(0, nil, engine.WithBackend(cb))
	eng.SetEstimator(&tierZero{bar: 0.25})
	eng.SetEstimateMode(engine.EstimateAlways())
	d := New(eng, nil, Config{})
	srv := startDaemon(t, d)

	jobs := svcJobs(4, 0)
	modes := []engine.EstimateMode{engine.EstimateOff(), engine.EstimateAlways(), engine.EstimateTolerance(0.1), engine.EstimateAlways()}
	reported := make([]int, len(jobs))
	res, err := NewClient(srv.URL, WithClientID("mixed")).RunEstimate(nil, jobs, modes, func(i int, r engine.Result) {
		reported[i]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Job != jobs[i] || r.Err != nil || r.Estimated != modes[i].Always || reported[i] != 1 {
			t.Errorf("job %d (mode %+v) = %+v, reported %d times; want estimated=%v, reported once",
				i, modes[i], r, reported[i], modes[i].Always)
		}
	}
	if _, n := cb.counts(); n != 2 {
		t.Errorf("backend simulated %d jobs, want the 2 exact ones", n)
	}
	if st := d.Stats(); st.Submitted != 4 || st.EstimatedHits != 2 || st.EstimatedEscalated != 2 {
		t.Errorf("daemon stats %+v, want 4 submitted, 2 estimated, 2 escalated", st)
	}

	// A daemon that fails the first submission fails the whole batch:
	// the jobs of the modes not yet submitted are skipped with it.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "broken", http.StatusBadRequest)
	}))
	t.Cleanup(broken.Close)
	reported = make([]int, len(jobs))
	res, err = NewClient(broken.URL).RunEstimate(nil, jobs, modes, func(i int, r engine.Result) { reported[i]++ })
	if err == nil {
		t.Fatal("RunEstimate against a failing daemon returned no error")
	}
	for i, r := range res {
		if !r.Skipped || r.Err == nil || reported[i] != 1 {
			t.Errorf("job %d after a daemon failure = %+v, reported %d times; want skipped once", i, r, reported[i])
		}
	}
}

// TestBackpressure pins the 429 contract: a submission that overflows
// the queue of an idle daemon gets 429 with a Retry-After hint, and a
// client engine rides the backpressure to completion once dispatch
// drains the queue.
func TestBackpressure(t *testing.T) {
	// No dispatch loops: the queue cannot drain, so overflow is
	// deterministic.
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{MaxQueue: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body, _ := json.Marshal(newSubmitRequest("c", nil, svcJobs(2, 0)))
	resp, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission status = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response has no Retry-After hint")
	}

	// With dispatch running, a chunked client submits more jobs than
	// the queue holds and succeeds through retries.
	d2 := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil,
		Config{MaxQueue: 2, Dispatchers: 1})
	srv2 := startDaemon(t, d2)
	cl := NewClient(srv2.URL, WithClientID("c"), WithSubmitChunk(2))
	res, err := cl.RunProgress(nil, svcJobs(6, 0), nil)
	if err != nil {
		t.Fatalf("chunked run through backpressure: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("job %d: %+v", i, r)
		}
	}
}

// TestSubmitRejectsDrift pins both request-validation paths: a
// protocol mismatch fails the whole request, and a job whose key does
// not match its value resolves as an immediate per-job error without
// queueing.
func TestSubmitRejectsDrift(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	srv := startDaemon(t, d)

	// Protocol mismatch: rejected outright.
	req := newSubmitRequest("c", nil, nil)
	req.Protocol = "p5queue/v0"
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("protocol mismatch status = %s, want 400", resp.Status)
	}

	// Key drift: the drifted job errors immediately, the valid one
	// runs.
	req = newSubmitRequest("c", nil, svcJobs(2, 0))
	req.Jobs[0].Key = "sha256:0000"
	body, _ = json.Marshal(req)
	resp, err = http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %s, want 200", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	byIndex := make(map[int]Event)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if ev.Type == EventDone {
			break
		}
		if ev.Type == EventResult {
			byIndex[ev.Index] = ev
		}
	}
	if ev := byIndex[0]; ev.Result == nil || !strings.Contains(ev.Result.Err, "key mismatch") {
		t.Fatalf("drifted job event = %+v, want a key-mismatch error", ev)
	}
	if ev := byIndex[1]; ev.Result == nil || ev.Result.Err != "" {
		t.Fatalf("valid job event = %+v, want a clean result", ev)
	}
}

// TestWorkerRegistration pins the fleet-growing path: a real worker
// registers over HTTP and joins the fleet as an up worker; a
// re-registration is a heartbeat (no growth); an unreachable address
// is refused.
func TestWorkerRegistration(t *testing.T) {
	worker := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 1}).Handler())
	defer worker.Close()

	fleet := remote.NewDynamic()
	d := New(engine.NewWith(0, nil, engine.WithBackend(fleet)), fleet, Config{})
	srv := startDaemon(t, d)

	register := func(addr string) (RegisterResponse, int) {
		t.Helper()
		body, _ := json.Marshal(RegisterRequest{Protocol: ProtocolVersion, Addr: addr})
		resp, err := http.Post(srv.URL+RegisterPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RegisterResponse
		json.NewDecoder(resp.Body).Decode(&rr)
		return rr, resp.StatusCode
	}

	rr, code := register(worker.URL)
	if code != http.StatusOK || !rr.Added || rr.Workers != 1 {
		t.Fatalf("first registration = %+v (status %d), want added with fleet size 1", rr, code)
	}
	rr, code = register(worker.URL)
	if code != http.StatusOK || rr.Added || rr.Workers != 1 {
		t.Fatalf("re-registration = %+v (status %d), want heartbeat (not added, size 1)", rr, code)
	}
	if st := d.Stats(); len(st.Workers) != 1 || st.Workers[0].Excluded {
		t.Fatalf("stats workers = %+v, want one up worker", st.Workers)
	}

	if _, code := register("127.0.0.1:1"); code != http.StatusBadGateway {
		t.Fatalf("unreachable worker registration status = %d, want 502", code)
	}
}

// TestRegisterWorkerRetriesFirstAnnounce: a worker whose first
// registrations are refused (its daemon is still starting) joins the
// fleet within seconds, not after a full heartbeat.
func TestRegisterWorkerRetriesFirstAnnounce(t *testing.T) {
	worker := httptest.NewServer(remote.NewServer(remote.ServerConfig{Workers: 1}).Handler())
	defer worker.Close()

	fleet := remote.NewDynamic()
	d := New(engine.NewWith(0, nil, engine.WithBackend(fleet)), fleet, Config{})
	var refused atomic.Int32
	daemon := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == RegisterPath && refused.Load() < 2 {
			refused.Add(1)
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		daemon.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		RegisterWorker(ctx, srv.URL, worker.URL, time.Minute, t.Logf)
		close(stopped)
	}()
	defer func() { cancel(); <-stopped }()

	deadline := time.Now().Add(5 * time.Second)
	for len(fleet.WorkerStates()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker not in the fleet 5s after start (%d registrations refused)", refused.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := refused.Load(); n != 2 {
		t.Fatalf("%d registrations refused before joining, want 2", n)
	}
}

// TestHugeL2JobIsAJobError: a well-formed job whose L2 cannot be
// allocated (it passes config validation, then panics building the
// chip) is answered on a local-engine daemon with a final per-job
// error, not a skip and not a dead process, and the same daemon then
// answers a normal job.
func TestHugeL2JobIsAJobError(t *testing.T) {
	d := New(engine.NewWith(1, nil), nil, Config{})
	srv := startDaemon(t, d)

	huge := chipJobs(t, 1)[0]
	huge.Chip.Mem.L2 = mem.CacheConfig{SizeBytes: 1 << 62, Ways: 1, LineBytes: 128}
	body, _ := json.Marshal(newSubmitRequest("c", nil, []engine.Job{huge}))
	resp, err := http.Post(srv.URL+SubmitPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var result *Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if ev.Type == EventDone {
			break
		}
		if ev.Type == EventResult {
			result = &ev
		}
	}
	if result == nil || result.Skipped || !strings.Contains(result.Result.Err, "panic") {
		t.Fatalf("huge-L2 job event = %+v, want a final per-job error naming the panic", result)
	}

	res, err := NewClient(srv.URL, WithClientID("c")).RunProgress(nil, chipJobs(t, 1), nil)
	if err != nil || res[0].Err != nil || res[0].Pair.TotalIPC == 0 {
		t.Fatalf("normal job after the huge one = %+v (%v), want a clean measurement", res[0], err)
	}
}

// TestClientRowsCapped: the per-tenant breakdown keeps at most
// maxClientRows named rows; client IDs first seen past the cap share
// one aggregate row, and no delivery goes uncounted.
func TestClientRowsCapped(t *testing.T) {
	d := New(engine.NewWith(0, nil, engine.WithBackend(&countingBackend{})), nil, Config{})
	const n = maxClientRows + 10
	for i := 0; i < n; i++ {
		d.countResult(fmt.Sprintf("client-%d", i), engine.Result{})
	}
	st := d.Stats()
	if len(st.Clients) > maxClientRows+1 {
		t.Fatalf("%d client rows after %d distinct IDs, want at most %d", len(st.Clients), n, maxClientRows+1)
	}
	var jobs int64
	for _, cs := range st.Clients {
		jobs += cs.Jobs
	}
	if jobs != n {
		t.Fatalf("client rows count %d jobs, want %d", jobs, n)
	}
}
