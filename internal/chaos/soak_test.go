package chaos_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"power5prio/internal/cachestore"
	"power5prio/internal/chaos"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/service"
)

// synthBackend derives each result deterministically from the job, so
// "byte-identical to a fault-free run" reduces to exact Pair equality
// however many times chaos forces a job to re-run.
type synthBackend struct {
	mu   sync.Mutex
	jobs int
}

func (b *synthBackend) Name() string { return "synth" }

func (b *synthBackend) RunProgress(ctx context.Context, jobs []engine.Job, _ func(int, engine.Result)) ([]engine.Result, error) {
	b.mu.Lock()
	b.jobs += len(jobs)
	b.mu.Unlock()
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = engine.Result{Job: j, Pair: fame.PairResult{
			TotalIPC: 2 * j.IterScale,
			Cycles:   uint64(1000 * j.IterScale),
		}}
	}
	return out, nil
}

func soakJobs(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i].IterScale = 1 + float64(i%20) // duplicates past 20: dedup under fire
	}
	return jobs
}

// soakPlan is the seeded fault schedule the soak runs under: worker
// crashes and stragglers at the backend, truncated streams, resets and
// 5xx on the wire, and a flaky disk under the cache store.
func soakPlan() chaos.Plan {
	return chaos.Plan{Seed: 20080614, Rules: []chaos.Rule{
		{Op: chaos.OpRun, Fault: chaos.FaultCrash, P: 0.25},
		{Op: chaos.OpRun, Fault: chaos.FaultSlow, Delay: chaos.Duration(10 * time.Millisecond), P: 0.3},
		{Op: chaos.OpHTTP, Target: service.SubmitPath, Fault: chaos.FaultTruncate, Bytes: 900, After: 1, Count: 2},
		{Op: chaos.OpHTTP, Target: service.SubmitPath, Fault: chaos.FaultConnReset, After: 6, Count: 1},
		{Op: chaos.OpHTTP, Target: service.SubmitPath, Fault: chaos.FaultHTTP500, After: 10, Count: 1},
		{Op: chaos.OpPut, Fault: chaos.FaultENOSPC, P: 0.4},
		{Op: chaos.OpPut, Fault: chaos.FaultTornWrite, P: 0.2},
	}}
}

// TestChaosSoak drives two concurrent clients through a chaos-wrapped
// daemon — faults injected at the backend, the wire (both sides), and
// the cache store — and restarts the daemon gracefully mid-run. Every
// job must resolve with a result byte-identical to a fault-free run:
// the repo's determinism contract, under fire. (The CI chaos step runs
// the same shape against real p5d/p5worker binaries and seeded plan
// files; this in-process soak keeps the contract pinned in `go test`.)
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	inj := chaos.NewInjector(soakPlan())
	cacheDir := t.TempDir()

	// Fault-free baseline.
	jobs := soakJobs(30)
	baseline := engine.NewWith(0, nil, engine.WithBackend(&synthBackend{})).Run(nil, jobs)
	for i, r := range baseline {
		if r.Err != nil || r.Skipped {
			t.Fatalf("baseline job %d = %+v", i, r)
		}
	}

	newDaemon := func() (*service.Daemon, context.CancelFunc) {
		store, err := cachestore.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetPutHook(chaos.PutHook(inj))
		eng := engine.NewWith(0, nil,
			engine.WithStore(store),
			engine.WithBackend(chaos.WrapBackend(&synthBackend{}, inj)))
		d := service.New(eng, nil, service.Config{
			BatchMax:    8,
			Dispatchers: 2,
			JobTimeout:  5 * time.Second,
		})
		ctx, cancel := context.WithCancel(context.Background())
		go d.Run(ctx)
		return d, cancel
	}

	d1, cancel1 := newDaemon()
	defer cancel1()

	// The stable "listen address": a front whose daemon is swapped out
	// mid-run, as a restarted process reclaims its port. Faults on the
	// serving side of the wire ride chaos.Middleware; in-flight streams
	// keep the handler they started on.
	var front atomic.Value
	front.Store(chaos.Middleware(d1.Handler(), inj))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Graceful restart once a few results have landed: drain, close,
	// bring up a successor on the same address and cache dir.
	var restartOnce sync.Once
	var progressed atomic.Int64
	restarted := make(chan struct{})
	noteProgress := func() {
		if progressed.Add(1) == 5 {
			restartOnce.Do(func() {
				go func() {
					defer close(restarted)
					d1.Drain()
					d2, cancel2 := newDaemon()
					t.Cleanup(func() { d2.Close(); cancel2() })
					front.Store(chaos.Middleware(d2.Handler(), inj))
					d1.Close()
				}()
			})
		}
	}

	runClient := func(id string) ([]engine.Result, error) {
		cl := service.NewClient(srv.URL,
			service.WithClientID(id),
			service.WithSubmitChunk(16),
			service.WithIdleTimeout(3*time.Second),
			service.WithBackpressureCap(time.Minute),
			service.WithHTTPClient(&http.Client{Transport: chaos.WrapTransport(nil, inj)}))
		return cl.RunProgress(context.Background(), jobs, func(int, engine.Result) { noteProgress() })
	}

	var wg sync.WaitGroup
	results := make([][]engine.Result, 2)
	errs := make([]error, 2)
	for i, id := range []string{"alice", "bob"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runClient(id)
		}()
	}
	wgdone := make(chan struct{})
	go func() { wg.Wait(); close(wgdone) }()
	select {
	case <-wgdone:
	case <-time.After(90 * time.Second):
		t.Fatal("soak did not complete within 90s")
	}

	for i, id := range []string{"alice", "bob"} {
		if errs[i] != nil {
			t.Fatalf("client %s: %v", id, errs[i])
		}
		for k, r := range results[i] {
			if r.Err != nil || r.Skipped {
				t.Fatalf("client %s job %d = %+v, want clean result under chaos", id, k, r)
			}
			if r.Pair != baseline[k].Pair {
				t.Fatalf("client %s job %d = %+v, differs from fault-free baseline %+v",
					id, k, r.Pair, baseline[k].Pair)
			}
		}
	}
	select {
	case <-restarted:
	case <-time.After(5 * time.Second):
		t.Fatal("the mid-run restart never triggered")
	}
	if inj.TotalFired() == 0 {
		t.Fatal("the chaos schedule never fired; the soak proved nothing")
	}
	t.Logf("soak complete: %d faults injected across %d rules", inj.TotalFired(), len(soakPlan().Rules))
}
