package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/mem"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// testOptions keeps simulations tiny (mirrors the engine test setup).
func testOptions() fame.Options {
	return fame.Options{MinReps: 2, WarmupReps: 0, MaxCycles: 50_000_000}
}

const testScale = 0.02

func ref(t testing.TB, name string) workload.Ref {
	t.Helper()
	r, err := workload.NewRegistry().Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testJobs builds n distinct jobs plus two duplicates, so batches
// exercise dedup above the backend and distinct work inside it.
func testJobs(t testing.TB, n int) []engine.Job {
	t.Helper()
	cfg := core.DefaultConfig()
	opt := testOptions()
	a, b := ref(t, microbench.CPUInt), ref(t, microbench.LdIntL1)
	var jobs []engine.Job
	for i := 0; len(jobs) < n; i++ {
		pp := prio.Level(1 + i%7)
		ps := prio.Level(1 + (i/7)%7)
		jobs = append(jobs, engine.Pair(a, b, pp, ps, prio.Supervisor, testScale, cfg, opt))
	}
	return append(jobs, jobs[0], jobs[n/2])
}

// fleetOf is a fleet of HTTP workers at addrs pulling chunks of chunk
// jobs.
func fleetOf(chunk int, addrs ...string) *ShardedBackend {
	var workers []Worker
	for _, a := range addrs {
		workers = append(workers, NewHTTPBackend(a))
	}
	s := NewDynamic(workers...)
	s.chunk = chunk
	return s
}

// startWorker runs a worker server over httptest and returns its
// address.
func startWorker(t testing.TB, cfg ServerConfig) string {
	t.Helper()
	ts := httptest.NewServer(NewServer(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestLoopbackEquivalence: a batch sharded across two HTTP workers is
// bit-identical to local execution, the progress callback covers every
// job, and the remote counters account for every unique job.
func TestLoopbackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	jobs := testJobs(t, 8)
	want := engine.New(4).Run(nil, jobs)

	addr1 := startWorker(t, ServerConfig{Workers: 2})
	addr2 := startWorker(t, ServerConfig{Workers: 2})
	backend := fleetOf(2, addr1, addr2)
	eng := engine.NewWith(0, nil, engine.WithBackend(backend))

	seen := make(map[int]int)
	got := eng.RunFunc(nil, jobs, func(i int, r engine.Result) { seen[i]++ })
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("remote job %d: %v", i, got[i].Err)
		}
		if got[i].Pair != want[i].Pair {
			t.Errorf("job %d: remote result differs from local\nremote %+v\nlocal  %+v", i, got[i].Pair, want[i].Pair)
		}
	}
	for i := range jobs {
		if seen[i] != 1 {
			t.Errorf("progress fired %d times for job %d, want 1", seen[i], i)
		}
	}

	st := eng.Stats()
	unique := 8
	if st.Remote.Jobs != unique {
		t.Errorf("Remote.Jobs = %d, want %d (unique jobs)", st.Remote.Jobs, unique)
	}
	if st.Remote.WorkerErrors != 0 || st.Remote.Retries != 0 {
		t.Errorf("healthy fleet reported failures: %+v", st.Remote)
	}
	if st.Simulated != unique || st.Hits != len(jobs)-unique {
		t.Errorf("engine stats %+v, want %d simulated, %d hits", st, unique, len(jobs)-unique)
	}
	if !strings.Contains(st.String(), "remote:") {
		t.Errorf("Stats.String() hides remote counters: %q", st.String())
	}

	// The whole batch again: pure client-side cache, nothing remote.
	before := st.Remote.Jobs
	again := eng.Run(nil, jobs)
	for i := range jobs {
		if !again[i].CacheHit || again[i].Pair != want[i].Pair {
			t.Fatalf("re-run job %d not served identically from the client cache", i)
		}
	}
	if after := eng.Stats().Remote.Jobs; after != before {
		t.Errorf("re-run went remote: %d jobs, want %d", after, before)
	}
}

// TestAllWorkersFail: with every worker failing, jobs come back as
// skipped backend errors — and nothing poisons the cache, so a retry
// against a healthy fleet succeeds.
func TestAllWorkersFail(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	jobs := testJobs(t, 3)[:3]
	// One job per chunk, so each dead worker takes one and is marked
	// down; the third job is left to nobody.
	backend := fleetOf(1, dead.URL, dead.URL)
	eng := engine.NewWith(0, nil, engine.WithBackend(backend))
	res := eng.Run(nil, jobs)
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("job %d succeeded against a dead fleet", i)
		}
		if !r.Skipped {
			t.Errorf("job %d backend failure not marked Skipped", i)
		}
	}
	if st := eng.Stats(); st.Simulated != 0 || st.Skipped != len(jobs) {
		t.Errorf("stats %+v, want 0 simulated / %d skipped", st, len(jobs))
	}
	for _, w := range backend.WorkerStates() {
		if !w.Excluded {
			t.Errorf("worker %s not marked down after failing its chunk", w.Name)
		}
	}

	// Same jobs on a healthy backend: the dead-fleet errors were not
	// cached.
	good := startWorker(t, ServerConfig{Workers: 2})
	eng2 := engine.NewWith(0, nil, engine.WithBackend(NewDynamic(NewHTTPBackend(good))))
	for i, r := range eng2.Run(nil, jobs) {
		if r.Err != nil {
			t.Fatalf("retry job %d: %v", i, r.Err)
		}
	}
}

// TestKeyMismatch: a job whose claimed key does not match the worker's
// recomputation fails loudly without executing.
func TestKeyMismatch(t *testing.T) {
	addr := startWorker(t, ServerConfig{Workers: 1})
	j := engine.Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
	req := RunRequest{Protocol: ProtocolVersion, Jobs: []WireJob{{Key: strings.Repeat("ab", 32), Job: j}}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(addr+RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 1 || !strings.Contains(rr.Results[0].Err, "key mismatch") {
		t.Errorf("forged key not rejected: %+v", rr.Results)
	}
}

// TestHugeL2JobIsAJobError: a correctly keyed job whose L2 cannot be
// allocated (it passes config validation, then panics building the
// chip) comes back from a worker as a per-job error instead of killing
// the process, and the same worker then runs a normal job.
func TestHugeL2JobIsAJobError(t *testing.T) {
	addr := startWorker(t, ServerConfig{Workers: 1})
	run := func(j engine.Job) WireResult {
		t.Helper()
		body, _ := json.Marshal(RunRequest{Protocol: ProtocolVersion, Jobs: []WireJob{{Key: engine.JobKey(j).String(), Job: j}}})
		resp, err := http.Post(addr+RunPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		if len(rr.Results) != 1 {
			t.Fatalf("%d results for one job", len(rr.Results))
		}
		return rr.Results[0]
	}
	j := engine.Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
	huge := j
	huge.Chip.Mem.L2 = mem.CacheConfig{SizeBytes: 1 << 62, Ways: 1, LineBytes: 128}
	if r := run(huge); !strings.Contains(r.Err, "panic") {
		t.Fatalf("huge-L2 job = %+v, want a per-job error naming the panic", r)
	}
	if r := run(j); r.Err != "" || r.Pair.TotalIPC == 0 {
		t.Fatalf("normal job after the huge one = %+v, want a clean measurement", r)
	}
}

// TestProtocolMismatch: both directions reject a version skew.
func TestProtocolMismatch(t *testing.T) {
	addr := startWorker(t, ServerConfig{Workers: 1})
	body, _ := json.Marshal(RunRequest{Protocol: "p5remote/v999"})
	resp, err := http.Post(addr+RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stale protocol accepted: %s", resp.Status)
	}

	// A "worker" speaking a different protocol version fails the health
	// probe before any job is risked.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Health{Protocol: "p5remote/v0"})
	}))
	defer old.Close()
	if err := NewHTTPBackend(old.URL).Healthy(nil); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Errorf("version-skewed worker passed health: %v", err)
	}
}

// TestCustomWorkloadFails: a job naming a locally registered custom
// kernel cannot execute on a worker that never saw the registration —
// it must error, not silently measure something else.
func TestCustomWorkloadFails(t *testing.T) {
	b := isa.NewBuilder("remote_custom")
	a := b.Reg("a")
	b.Op2(isa.OpIntAdd, a, a, a)
	b.Branch(isa.BranchLoop, a)
	reg := workload.NewRegistry()
	cref, err := reg.Register(b.MustBuild(16))
	if err != nil {
		t.Fatal(err)
	}
	addr := startWorker(t, ServerConfig{Workers: 1})
	eng := engine.NewWith(0, reg, engine.WithBackend(NewDynamic(NewHTTPBackend(addr))))
	res := eng.Run(nil, []engine.Job{engine.Single(cref, prio.Supervisor, 1.0, core.DefaultConfig(), testOptions())})
	if res[0].Err == nil {
		t.Fatal("custom workload executed on a worker that cannot know its kernel")
	}
	if !strings.Contains(res[0].Err.Error(), "remote_custom") {
		t.Errorf("error does not name the unresolvable workload: %v", res[0].Err)
	}
}

// TestShardedCancellation: cancelling mid-batch returns skipped results
// carrying the context error, and completed work stays cached.
func TestShardedCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("chip-level simulation")
	}
	addr := startWorker(t, ServerConfig{Workers: 1})
	jobs := testJobs(t, 6)[:6]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eng := engine.NewWith(0, nil, engine.WithBackend(fleetOf(1, addr)))
	nDone := 0
	res := eng.RunFunc(ctx, jobs, func(i int, r engine.Result) {
		if r.Err == nil {
			nDone++
			if nDone == 2 {
				cancel()
			}
		}
	})
	completed, skipped := 0, 0
	for i, r := range res {
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("job %d: unexpected error %v", i, r.Err)
		}
	}
	if completed < 2 || completed == len(jobs) {
		t.Errorf("%d jobs completed, want a strict mid-batch prefix >= 2", completed)
	}
	if st := eng.Stats(); st.Skipped != skipped || st.Remote.WorkerErrors != 0 {
		t.Errorf("stats %+v after cancellation (%d skipped results)", st, skipped)
	}
}
