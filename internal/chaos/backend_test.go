package chaos

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/fame"
)

// fakeBackend synthesizes results instantly; the tests exercise the
// decorator, not simulation.
type fakeBackend struct {
	mu   sync.Mutex
	jobs int
}

func (b *fakeBackend) Name() string { return "fake" }

func (b *fakeBackend) RunProgress(ctx context.Context, jobs []engine.Job, done func(int, engine.Result)) ([]engine.Result, error) {
	b.mu.Lock()
	b.jobs += len(jobs)
	b.mu.Unlock()
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = engine.Result{Job: j, Pair: fame.PairResult{TotalIPC: j.IterScale}}
		if done != nil {
			done(i, out[i])
		}
	}
	return out, nil
}

func chaosJobs(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i].IterScale = 1 + float64(i)
	}
	return jobs
}

// TestBackendCrash pins the crash fault: half the batch executes, the
// rest comes back skipped with the injected cause, and the call itself
// fails — exactly a worker dying mid-batch.
func TestBackendCrash(t *testing.T) {
	inner := &fakeBackend{}
	b := WrapBackend(inner, NewInjector(Plan{Rules: []Rule{{Op: OpRun, Fault: FaultCrash, Count: 1}}}))
	if got := b.Name(); got != "chaos(fake)" {
		t.Fatalf("Name = %q", got)
	}

	var mu sync.Mutex
	reported := make(map[int]bool)
	out, err := b.RunProgress(context.Background(), chaosJobs(4), func(i int, r engine.Result) {
		mu.Lock()
		reported[i] = true
		mu.Unlock()
	})
	if err == nil || !strings.Contains(err.Error(), "injected worker crash") {
		t.Fatalf("crash run error = %v, want injected crash", err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d results, want 4", len(out))
	}
	for i, r := range out[:2] {
		if r.Err != nil || r.Skipped || r.Pair.TotalIPC != 1+float64(i) {
			t.Fatalf("executed job %d = %+v", i, r)
		}
	}
	for i, r := range out[2:] {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("stranded job %d = %+v, want skipped with cause", 2+i, r)
		}
	}
	for i := 0; i < 4; i++ {
		if !reported[i] {
			t.Fatalf("done callback never fired for job %d", i)
		}
	}

	// Count: 1 — the next batch passes through whole.
	out, err = b.RunProgress(context.Background(), chaosJobs(3), nil)
	if err != nil {
		t.Fatalf("post-cap run: %v", err)
	}
	for i, r := range out {
		if r.Err != nil || r.Skipped {
			t.Fatalf("post-cap job %d = %+v", i, r)
		}
	}
}

// TestBackendSkip pins the silent-drop fault: stranded jobs are skipped
// but the call succeeds — no backend-level error for the engine to act
// on, exactly the shape the daemon hands back for its client to resubmit.
func TestBackendSkip(t *testing.T) {
	b := WrapBackend(&fakeBackend{}, NewInjector(Plan{Rules: []Rule{{Op: OpRun, Fault: FaultSkip, Count: 1}}}))
	out, err := b.RunProgress(context.Background(), chaosJobs(4), nil)
	if err != nil {
		t.Fatalf("skip fault must not fail the call: %v", err)
	}
	skipped := 0
	for _, r := range out {
		if r.Skipped {
			skipped++
			if r.Err == nil {
				t.Fatalf("skipped result carries no cause: %+v", r)
			}
		}
	}
	if skipped != 2 {
		t.Fatalf("%d jobs skipped, want 2", skipped)
	}
}

// TestBackendSlow pins the straggler fault: the batch completes intact,
// later than the injected delay — and a dead context cuts the stall
// short with everything skipped.
func TestBackendSlow(t *testing.T) {
	delay := 30 * time.Millisecond
	plan := Plan{Rules: []Rule{{Op: OpRun, Fault: FaultSlow, Delay: Duration(delay), Count: 1}}}

	b := WrapBackend(&fakeBackend{}, NewInjector(plan))
	start := time.Now()
	out, err := b.RunProgress(context.Background(), chaosJobs(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("slow run finished in %s, want >= %s", elapsed, delay)
	}
	for i, r := range out {
		if r.Err != nil || r.Skipped {
			t.Fatalf("delayed job %d = %+v, want intact result", i, r)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = WrapBackend(&fakeBackend{}, NewInjector(plan)).RunProgress(ctx, chaosJobs(2), nil)
	if err != nil {
		t.Fatalf("cancelled slow run must not fail the call: %v", err)
	}
	for i, r := range out {
		if !r.Skipped {
			t.Fatalf("cancelled job %d = %+v, want skipped", i, r)
		}
	}
}
