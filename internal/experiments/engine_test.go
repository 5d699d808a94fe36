package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/microbench"
	"power5prio/internal/spec"
)

// matrixHarness is a fast harness for engine-level matrix tests.
func matrixHarness(workers int) Harness {
	h := Quick()
	h.Fame = fame.Options{MinReps: 2, WarmupReps: 0, MaxCycles: 50_000_000}
	h.IterScale = 0.02
	h.Engine = engine.New(workers)
	return h
}

var matrixNames = []string{microbench.CPUInt, microbench.LdIntL1, microbench.LdIntMem}

// mustMatrix runs a complete RunMatrix, failing the test on any error.
func mustMatrix(t testing.TB, h Harness, primaries, secondaries []string, diffs []int) *MatrixResult {
	t.Helper()
	m, err := RunMatrix(context.Background(), h, primaries, secondaries, diffs)
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	return m
}

// TestMatrixWorkerEquivalence: RunMatrix produces identical cells and
// single-thread IPCs at -workers 1 and -workers 8.
func TestMatrixWorkerEquivalence(t *testing.T) {
	diffs := []int{0, 2, -2}
	serial := mustMatrix(t, matrixHarness(1), matrixNames, matrixNames, diffs)
	parallel := mustMatrix(t, matrixHarness(8), matrixNames, matrixNames, diffs)

	if !reflect.DeepEqual(serial.SingleIPC, parallel.SingleIPC) {
		t.Errorf("SingleIPC diverged:\nserial   %v\nparallel %v", serial.SingleIPC, parallel.SingleIPC)
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("matrix cells diverged between 1 and 8 workers")
		for key, cell := range serial.Cells {
			for d, m := range cell {
				if pm := parallel.Cells[key][d]; pm != m {
					t.Errorf("  (%s,%s) diff %+d: serial %+v parallel %+v", key.P, key.S, d, m, pm)
				}
			}
		}
	}
}

// TestMatrixCacheSharing: experiments run from the same harness reuse
// each other's baselines — a second matrix over the same names at diff 0
// simulates nothing new.
func TestMatrixCacheSharing(t *testing.T) {
	h := matrixHarness(4)
	mustMatrix(t, h, matrixNames, matrixNames, []int{0, 3})
	before := h.Engine.Stats()
	mustMatrix(t, h, matrixNames, matrixNames, []int{0})
	after := h.Engine.Stats()
	if after.Simulated != before.Simulated {
		t.Errorf("diff=0 re-run simulated %d new jobs, want 0 (all cells shared)",
			after.Simulated-before.Simulated)
	}
	if after.Hits <= before.Hits {
		t.Errorf("diff=0 re-run recorded no cache hits: %+v -> %+v", before, after)
	}
}

// TestMatrixMixedFamilies: the registry lets one matrix sweep a
// micro-benchmark against a SPEC stand-in — the pre-registry API's
// family silo is gone.
func TestMatrixMixedFamilies(t *testing.T) {
	h := matrixHarness(4)
	names := []string{microbench.CPUInt, spec.MCF}
	m := mustMatrix(t, h, names, names, []int{0, 2})
	for _, p := range names {
		if m.SingleIPC[p] <= 0 {
			t.Errorf("SingleIPC[%s] = %v", p, m.SingleIPC[p])
		}
		for _, s := range names {
			if m.At(p, s, 2).Primary <= 0 {
				t.Errorf("mixed cell (%s,%s,+2) empty", p, s)
			}
		}
	}
}

// TestMatrixCancellation: cancelling a sweep returns the partial matrix —
// measured cells intact, the rest absent — plus the context error, and a
// re-run resumes from the cache.
func TestMatrixCancellation(t *testing.T) {
	h := matrixHarness(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 3
	seen := 0
	h.Progress = func(engine.Result) {
		seen++
		if seen == stopAfter {
			cancel()
		}
	}
	diffs := []int{0, 2, -2}
	m, err := RunMatrix(ctx, h, matrixNames, matrixNames, diffs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunMatrix error = %v", err)
	}
	if !m.Partial {
		t.Error("cancelled matrix not marked Partial")
	}
	measured := len(m.SingleIPC)
	for _, p := range matrixNames {
		for _, s := range matrixNames {
			for _, d := range diffs {
				if m.Has(p, s, d) {
					measured++
					if m.At(p, s, d).Primary <= 0 {
						t.Errorf("measured cell (%s,%s,%+d) is empty", p, s, d)
					}
				} else if m.At(p, s, d) != (Meas{}) {
					t.Errorf("unmeasured cell (%s,%s,%+d) not zero on a Partial matrix", p, s, d)
				}
			}
		}
	}
	total := len(matrixNames) * (1 + len(matrixNames)*len(diffs))
	if measured == 0 || measured >= total {
		t.Errorf("partial matrix measured %d of %d entries; want a strict subset", measured, total)
	}

	// The completed prefix re-runs as cache hits.
	h.Progress = nil
	before := h.Engine.Stats()
	mustMatrix(t, h, matrixNames, matrixNames, diffs)
	after := h.Engine.Stats()
	if gotHits := after.Hits - before.Hits; gotHits < measured {
		t.Errorf("re-run reused %d cached jobs, want >= %d", gotHits, measured)
	}
}

// failingBackend runs jobs on the local pool but fails one job the way
// a worker whose simulation of it panicked does.
type failingBackend struct {
	engine.Backend
	fail engine.Job
}

func (b failingBackend) RunProgress(ctx context.Context, jobs []engine.Job, _ func(int, engine.Result)) ([]engine.Result, error) {
	out, err := b.Backend.RunProgress(ctx, jobs, nil)
	for i, j := range jobs {
		if j == b.fail {
			out[i] = engine.Result{Job: j, Err: errors.New("engine: job panicked: runtime error: makeslice: len out of range")}
		}
	}
	return out, err
}

// TestMatrixJobError: a job the backend fails ends the sweep with an
// error naming that job and a Partial matrix holding every other cell.
func TestMatrixJobError(t *testing.T) {
	h := matrixHarness(2)
	pp, ps := DiffPair(2)
	fail := h.pairJob(h.Engine, microbench.CPUInt, microbench.LdIntMem, pp, ps)
	h.Engine = engine.NewWith(0, nil, engine.WithBackend(failingBackend{engine.NewLocalBackend(2, nil), fail}))

	diffs := []int{0, 2}
	m, err := RunMatrix(context.Background(), h, matrixNames, matrixNames, diffs)
	if err == nil || !strings.Contains(err.Error(), "panicked") ||
		!strings.Contains(err.Error(), fail.Primary.String()+"+"+fail.Secondary.String()) {
		t.Fatalf("RunMatrix error = %v, want the failed job named", err)
	}
	if !m.Partial {
		t.Error("matrix with a failed job not marked Partial")
	}
	for _, p := range matrixNames {
		for _, s := range matrixNames {
			for _, d := range diffs {
				failed := p == microbench.CPUInt && s == microbench.LdIntMem && d == 2
				if m.Has(p, s, d) == failed {
					t.Errorf("cell (%s,%s,%+d) present = %v, want %v", p, s, d, !failed, failed)
				}
			}
		}
	}
}

// TestHarnessWithoutEngine: a hand-built harness (no Engine field) still
// measures, creating a private pool on demand.
func TestHarnessWithoutEngine(t *testing.T) {
	h := matrixHarness(2)
	h.Engine = nil
	h.Workers = 2
	res, err := h.RunSingle(context.Background(), microbench.CPUInt)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Errorf("engine-less harness made no progress: %+v", res)
	}
}

// TestMeasureDiffs: the batched sweep helper returns one result per
// difference, matching the pointwise path.
func TestMeasureDiffs(t *testing.T) {
	h := matrixHarness(4)
	diffs := []int{0, 2}
	batch, err := h.MeasureDiffs(context.Background(), microbench.CPUInt, microbench.LdIntL1, diffs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(diffs) {
		t.Fatalf("%d results, want %d", len(batch), len(diffs))
	}
	for i, d := range diffs {
		pp, ps := DiffPair(d)
		single, err := h.RunPairLevels(context.Background(), microbench.CPUInt, microbench.LdIntL1, pp, ps)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("diff %+d: batched result differs from pointwise", d)
		}
	}
}

// benchMatrix regenerates a small sweep; serial and parallel variants
// share sizing so their time/op is directly comparable.
func benchMatrix(b *testing.B, workers int) {
	names := []string{microbench.CPUInt, microbench.LdIntL1, microbench.LdIntL2, microbench.LdIntMem}
	diffs := []int{0, 1, 2, -1, -2}
	for i := 0; i < b.N; i++ {
		h := Quick()
		h.IterScale = 0.1
		h.Engine = engine.New(workers) // fresh cache: measure simulation, not memoization
		m := mustMatrix(b, h, names, names, diffs)
		if len(m.Cells) != len(names)*len(names) {
			b.Fatalf("matrix incomplete: %d cells", len(m.Cells))
		}
		st := h.Engine.Stats()
		b.ReportMetric(float64(st.Simulated)/float64(st.Submitted), "simulated/job")
		b.ReportMetric(float64(st.Hits), "cache-hits")
	}
}

// BenchmarkMatrixSerial is the single-worker reference for RunMatrix.
func BenchmarkMatrixSerial(b *testing.B) { benchMatrix(b, 1) }

// BenchmarkMatrixParallel fans the same matrix out across all cores; on
// a 4+ core machine time/op drops roughly by the core count.
func BenchmarkMatrixParallel(b *testing.B) { benchMatrix(b, 0) }

// BenchmarkMatrixCached measures the memoized path: every job after the
// first iteration is a cache hit.
func BenchmarkMatrixCached(b *testing.B) {
	names := []string{microbench.CPUInt, microbench.LdIntL1, microbench.LdIntL2, microbench.LdIntMem}
	diffs := []int{0, 1, 2, -1, -2}
	h := Quick()
	h.IterScale = 0.1
	h.Engine = engine.New(0)
	mustMatrix(b, h, names, names, diffs) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMatrix(b, h, names, names, diffs)
	}
	b.ReportMetric(float64(h.Engine.Stats().Hits)/float64(b.N), "cache-hits/op")
}
