package engine

import (
	"os"
	"sync"
	"testing"

	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
)

// openStore opens a persistent store for engine tests.
func openStore(t testing.TB, dir string) *cachestore.Store {
	t.Helper()
	st, err := cachestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDiskTierWarmEngine: a fresh engine sharing a warm store directory
// must serve every unique job from disk — zero simulations — with
// results bit-identical to the cold engine's. This is the process-restart
// scenario, minus the process boundary.
func TestDiskTierWarmEngine(t *testing.T) {
	dir := t.TempDir()
	jobs := testBatch(t)
	unique := make(map[Job]bool)
	for _, j := range jobs {
		unique[j] = true
	}

	cold := NewWith(4, nil, WithStore(openStore(t, dir)))
	coldRes := cold.Run(nil, jobs)
	cs := cold.Stats()
	if cs.DiskHits != 0 || cs.DiskMisses != len(unique) || cs.DiskWrites != len(unique) {
		t.Fatalf("cold stats %+v: want 0 disk hits, %d misses, %d writes", cs, len(unique), len(unique))
	}
	checkAccounting(t, cold)

	warm := NewWith(4, nil, WithStore(openStore(t, dir)))
	warmRes := warm.Run(nil, jobs)
	ws := warm.Stats()
	if ws.Simulated != 0 {
		t.Errorf("warm engine simulated %d jobs, want 0", ws.Simulated)
	}
	if ws.DiskHits != len(unique) || ws.DiskMisses != 0 || ws.DiskWrites != 0 {
		t.Errorf("warm stats %+v: want %d disk hits, 0 misses, 0 writes", ws, len(unique))
	}
	if ws.Hits != len(jobs) {
		t.Errorf("warm Hits = %d, want every job (%d) served from cache", ws.Hits, len(jobs))
	}
	checkAccounting(t, warm)
	for i := range jobs {
		if warmRes[i].Err != nil {
			t.Fatalf("warm job %d: %v", i, warmRes[i].Err)
		}
		if !warmRes[i].CacheHit {
			t.Errorf("warm job %d not marked CacheHit", i)
		}
		if warmRes[i].Pair != coldRes[i].Pair {
			t.Errorf("warm job %d differs from cold run\ncold %+v\nwarm %+v", i, coldRes[i].Pair, warmRes[i].Pair)
		}
	}
}

// TestDiskTierCorruptionFallback: a corrupt entry must read as a miss,
// be recomputed with the correct result, and be rewritten clean for the
// next engine.
func TestDiskTierCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	job := Single(ref(t, microbench.CPUInt), prio.Supervisor, testScale, core.DefaultConfig(), testOptions())

	cold := NewWith(1, nil, WithStore(openStore(t, dir)))
	want := cold.Run(nil, []Job{job})[0]
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	// Flip a payload bit in the stored entry.
	st := openStore(t, dir)
	path := st.EntryPath(JobKey(job))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mid := NewWith(1, nil, WithStore(openStore(t, dir)))
	got := mid.Run(nil, []Job{job})[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.CacheHit {
		t.Error("corrupt entry served as a cache hit")
	}
	if got.Pair != want.Pair {
		t.Errorf("recomputed result differs: %+v vs %+v", got.Pair, want.Pair)
	}
	ms := mid.Stats()
	if ms.Simulated != 1 || ms.DiskMisses != 1 || ms.DiskWrites != 1 {
		t.Errorf("fallback stats %+v: want 1 simulated, 1 disk miss, 1 rewrite", ms)
	}

	// The rewrite restored a clean entry: the next engine hits.
	warm := NewWith(1, nil, WithStore(openStore(t, dir)))
	res := warm.Run(nil, []Job{job})[0]
	if res.Err != nil || !res.CacheHit || res.Pair != want.Pair {
		t.Errorf("post-rewrite run: hit=%v err=%v", res.CacheHit, res.Err)
	}
	if vs := warm.Stats(); vs.DiskHits != 1 || vs.Simulated != 0 {
		t.Errorf("post-rewrite stats %+v: want 1 disk hit, 0 simulated", vs)
	}
}

// TestDiskTierConcurrentEngines: two engines sharing one directory,
// running overlapping batches concurrently (the -race coverage for the
// engine side of the shared cache dir).
func TestDiskTierConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	jobs := testBatch(t)
	ref := New(1).Run(nil, jobs)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewWith(2, nil, WithStore(openStore(t, dir)))
			for round := 0; round < 3; round++ {
				res := e.Run(nil, jobs)
				for i := range jobs {
					if res[i].Err != nil {
						t.Errorf("job %d: %v", i, res[i].Err)
					} else if res[i].Pair != ref[i].Pair {
						t.Errorf("job %d: concurrent shared-store result differs", i)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemo: the generic disk-memoization path used by non-Job
// measurements (Table 4's pipeline runs).
func TestMemo(t *testing.T) {
	dir := t.TempDir()
	type key struct{ N int }
	type result struct{ V float64 }
	const schema = "power5prio/test-memo/v1"

	e1 := NewWith(1, nil, WithStore(openStore(t, dir)))
	var r1 result
	calls := 0
	hit, err := e1.Memo(schema, key{7}, &r1, func() error { calls++; r1.V = 3.5; return nil })
	if err != nil || hit || calls != 1 {
		t.Fatalf("cold Memo: hit=%v err=%v calls=%d", hit, err, calls)
	}

	// A fresh engine on the same dir hits without computing.
	e2 := NewWith(1, nil, WithStore(openStore(t, dir)))
	var r2 result
	hit, err = e2.Memo(schema, key{7}, &r2, func() error { t.Error("memo recomputed on warm store"); return nil })
	if err != nil || !hit || r2 != r1 {
		t.Fatalf("warm Memo: hit=%v err=%v r2=%+v", hit, err, r2)
	}
	if s := e2.Stats(); s.DiskHits != 1 || s.DiskMisses != 0 {
		t.Errorf("warm Memo stats %+v", s)
	}

	// A different key computes.
	var r3 result
	hit, err = e2.Memo(schema, key{8}, &r3, func() error { r3.V = 4.5; return nil })
	if err != nil || hit || r3.V != 4.5 {
		t.Fatalf("distinct-key Memo: hit=%v err=%v r3=%+v", hit, err, r3)
	}

	// Without a store, Memo is a plain call.
	bare := New(1)
	var r4 result
	hit, err = bare.Memo(schema, key{7}, &r4, func() error { r4.V = 9; return nil })
	if err != nil || hit || r4.V != 9 {
		t.Fatalf("storeless Memo: hit=%v err=%v r4=%+v", hit, err, r4)
	}

	// Unhashable keys fail loudly instead of silently recomputing forever.
	if _, err := e2.Memo(schema, map[string]int{}, &r4, func() error { return nil }); err == nil {
		t.Error("Memo accepted an unhashable key")
	}
}
