package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"power5prio/internal/core"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
)

// plainBackend is a minimal Backend whose RunProgress never calls done:
// it executes locally but only reports through the returned slice, plus
// fake remote counters — covering the engine's non-streaming path and
// the RemoteStatser fold.
type plainBackend struct {
	fail error // when set, RunProgress fails wholesale
	rs   RemoteStats
}

func (p *plainBackend) Name() string             { return "plain" }
func (p *plainBackend) RemoteStats() RemoteStats { return p.rs }
func (p *plainBackend) RunProgress(ctx context.Context, jobs []Job, _ func(int, Result)) ([]Result, error) {
	if p.fail != nil {
		return nil, p.fail
	}
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		pair, err := Execute(nil, j)
		out[i] = Result{Job: j, Pair: pair, Err: err}
		p.rs.Jobs++
	}
	return out, nil
}

// TestWithBackendPlain: an engine over a Backend that never reports
// through done still resolves every job, fans results to duplicates,
// fires progress exactly once per index, and folds the backend's remote
// counters into Stats.
func TestWithBackendPlain(t *testing.T) {
	jobs := testBatch(t) // 7 jobs, 5 unique
	pb := &plainBackend{}
	e := NewWith(0, nil, WithBackend(pb))
	if e.Backend() != Backend(pb) {
		t.Fatal("Backend() does not return the installed backend")
	}
	want := New(1).Run(nil, jobs)
	seen := make(map[int]int)
	got := e.RunFunc(nil, jobs, func(i int, r Result) { seen[i]++ })
	for i := range jobs {
		if got[i].Err != nil || got[i].Pair != want[i].Pair {
			t.Errorf("job %d diverged through the plain backend", i)
		}
		if seen[i] != 1 {
			t.Errorf("progress fired %d times for job %d", seen[i], i)
		}
	}
	st := e.Stats()
	if st.Simulated != 5 || st.Hits != 2 {
		t.Errorf("stats %+v, want 5 simulated / 2 hits", st)
	}
	if st.Remote.Jobs != 5 {
		t.Errorf("Remote.Jobs = %d, want 5 (folded from the backend)", st.Remote.Jobs)
	}
	if !strings.Contains(st.String(), "remote: 5 jobs") {
		t.Errorf("Stats.String() = %q, want remote counters", st.String())
	}
}

// TestBackendFailure: a wholesale backend failure marks every
// unresolved job skipped with the wrapped error and caches nothing, so
// the same engine retries cleanly once the backend recovers.
func TestBackendFailure(t *testing.T) {
	pb := &plainBackend{fail: errors.New("fleet unplugged")}
	e := NewWith(0, nil, WithBackend(pb))
	j := Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())
	res := e.Run(nil, []Job{j, j})
	for i, r := range res {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "fleet unplugged") {
			t.Fatalf("job %d: err %v, want the backend failure", i, r.Err)
		}
	}
	if st := e.Stats(); st.Simulated != 0 || st.Skipped != 2 {
		t.Errorf("stats %+v, want nothing simulated, both skipped", st)
	}

	pb.fail = nil
	res = e.Run(nil, []Job{j})
	if res[0].Err != nil {
		t.Fatalf("retry after backend recovery: %v", res[0].Err)
	}
	if res[0].CacheHit {
		t.Error("failed attempt was cached")
	}
}

// TestLocalBackendDirect: the extracted pool honours the Backend
// contract directly — results in order, skipped when cancelled.
func TestLocalBackendDirect(t *testing.T) {
	b := NewLocalBackend(3, nil)
	if b.Name() != "local" {
		t.Fatalf("Name = %q", b.Name())
	}

	jobs := testBatch(t)[:3]
	res, err := b.RunProgress(nil, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		pair, xerr := Execute(nil, jobs[i])
		if xerr != nil || res[i].Err != nil || res[i].Pair != pair {
			t.Errorf("job %d: pool result differs from Execute", i)
		}
	}

	// Pre-cancelled: everything is a skipped result, nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = b.RunProgress(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Skipped || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: %+v, want skipped with context error", i, r)
		}
	}
}

// TestForEachBoundedLocally: ForEach work always runs in-process, so
// its concurrency follows the engine's local worker count — not the
// backend (a remote fleet's size says nothing about this machine).
func TestForEachBoundedLocally(t *testing.T) {
	pb := &plainBackend{}
	e := NewWith(1, nil, WithBackend(pb))
	var cur atomic.Int32
	if err := e.ForEach(nil, 6, func(int) {
		if c := cur.Add(1); c > 1 {
			t.Errorf("%d concurrent ForEach calls with 1 local worker", c)
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalBackendGlobalBound: the pool tokens are shared across
// concurrent calls on one backend — the contract that keeps a
// p5worker's -workers a real limit under several clients. The bound
// itself is channel semantics; what needs pinning is that concurrent
// batches share the one token without deadlocking and stay correct.
func TestLocalBackendGlobalBound(t *testing.T) {
	b := NewLocalBackend(1, nil)
	jobs := testBatch(t)[:2]
	want, err := Execute(nil, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.RunProgress(nil, jobs, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if res[0].Err != nil || res[0].Pair != want {
				t.Error("concurrent bounded batch diverged")
			}
		}()
	}
	wg.Wait()
}
