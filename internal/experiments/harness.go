// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated POWER5. Each experiment returns a
// typed result with a Render method producing the same rows/series the
// paper reports, plus the paper's own numbers for side-by-side comparison.
//
// All measurement paths are batched: experiments describe their runs as
// engine.Jobs — workloads resolved through the engine's unified registry,
// so micro-benchmarks, SPEC stand-ins and custom kernels mix freely — and
// submit them to the harness's shared batch engine, which fans
// independent simulations out across CPU cores and memoizes results, so
// baselines shared between experiments (the (4,4) co-runs, the
// single-thread IPCs) are simulated once.
//
// Every experiment takes a context: cancelling it stops the sweep,
// returns the partial results measured so far (marked Partial on matrix
// results) alongside the context's error, and leaves the completed work
// in the engine cache so a retry resumes where the sweep stopped. A job
// that fails (a p5d daemon giving up on it, say) ends the experiment the
// same way, with an error naming the job.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// Harness bundles the configuration every experiment shares.
type Harness struct {
	Chip core.Config
	Fame fame.Options
	// IterScale shrinks micro-benchmark repetition lengths (1.0 = the
	// defaults; tests and benches use smaller values).
	IterScale float64
	// Privilege used for in-stream priority changes (the paper's patched
	// kernel exposes the supervisor range to applications).
	Privilege prio.Privilege
	// Workers bounds the batch engine's concurrency when the harness has
	// to create its own engine (0 = all cores).
	Workers int
	// Engine executes measurement batches. Default and Quick install a
	// fresh engine; copies of a Harness share it, so experiments run from
	// the same harness reuse each other's cached baselines. Workload
	// names resolve in this engine's registry.
	Engine *engine.Engine
	// Progress, when non-nil, receives every finished job of a harness
	// batch (cache hits included, cancelled jobs excluded). Calls are
	// serialized by the engine.
	Progress func(engine.Result)
}

// Default returns the full-fidelity harness (paper methodology: MAIV 1%,
// at least 10 repetitions).
func Default() Harness {
	return Harness{
		Chip:      core.DefaultConfig(),
		Fame:      fame.DefaultOptions(),
		IterScale: 1.0,
		Privilege: prio.Supervisor,
		Engine:    engine.New(0),
	}
}

// Quick returns a reduced harness for tests and benches: fewer repetitions
// and shorter kernels. Shapes are preserved; absolute noise grows.
func Quick() Harness {
	h := Default()
	h.Fame = fame.Options{MinReps: 3, WarmupReps: 1, MaxCycles: 120_000_000}
	h.IterScale = 0.25
	return h
}

// engine returns the harness's batch engine, creating a private one when
// the harness was built by hand without one.
func (h Harness) engine() *engine.Engine {
	if h.Engine != nil {
		return h.Engine
	}
	return engine.New(h.Workers)
}

// resolve maps a workload name to its registry ref. Experiment inputs are
// compiled in (or validated by the public facade), so an unknown name is
// a harness bug, not user input.
func (h Harness) resolve(eng *engine.Engine, name string) workload.Ref {
	ref, err := eng.Registry().Resolve(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return ref
}

// pairJob describes a co-run of two named workloads at explicit levels.
// The names may come from different workload families.
func (h Harness) pairJob(eng *engine.Engine, nameP, nameS string, pp, ps prio.Level) engine.Job {
	return engine.Pair(h.resolve(eng, nameP), h.resolve(eng, nameS), pp, ps, h.Privilege, h.IterScale, h.Chip, h.Fame)
}

// singleJob describes a single-thread run.
func (h Harness) singleJob(eng *engine.Engine, name string) engine.Job {
	return engine.Single(h.resolve(eng, name), h.Privilege, h.IterScale, h.Chip, h.Fame)
}

// isCancel reports whether a job error is the batch context's error.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// progressFunc adapts the harness Progress hook to the engine callback.
func (h Harness) progressFunc() func(int, engine.Result) {
	if h.Progress == nil {
		return nil
	}
	return func(_ int, r engine.Result) {
		if r.Err == nil {
			h.Progress(r)
		}
	}
}

// run submits a batch and unwraps the results; jobs that did not
// complete leave zero-valued entries (see batch.runWith for the error).
func (h Harness) run(ctx context.Context, eng *engine.Engine, jobs []engine.Job) ([]fame.PairResult, error) {
	out := make([]fame.PairResult, len(jobs))
	var b batch
	for i, j := range jobs {
		b.add(j, func(r fame.PairResult) { out[i] = r })
	}
	return out, b.runWith(ctx, h, eng)
}

// RunPairLevels measures a co-scheduled pair at explicit priority levels.
// The two names may come from different workload families.
func (h Harness) RunPairLevels(ctx context.Context, nameP, nameS string, pp, ps prio.Level) (fame.PairResult, error) {
	eng := h.engine()
	res, err := h.run(ctx, eng, []engine.Job{h.pairJob(eng, nameP, nameS, pp, ps)})
	if err != nil {
		return fame.PairResult{}, err
	}
	return res[0], nil
}

// RunSingle measures a workload alone on the core (ST mode).
func (h Harness) RunSingle(ctx context.Context, name string) (fame.ThreadResult, error) {
	eng := h.engine()
	res, err := h.run(ctx, eng, []engine.Job{h.singleJob(eng, name)})
	if err != nil {
		return fame.ThreadResult{}, err
	}
	return res[0].Thread[0], nil
}

// MeasureDiffs measures a pair at each priority difference in diffs
// (each in [-5,+5], mapped to the paper's level pairs) as one batch:
// the settings simulate concurrently and repeats are cache hits.
func (h Harness) MeasureDiffs(ctx context.Context, nameP, nameS string, diffs []int) ([]fame.PairResult, error) {
	eng := h.engine()
	jobs := make([]engine.Job, len(diffs))
	for i, d := range diffs {
		pp, ps := DiffPair(d)
		jobs[i] = h.pairJob(eng, nameP, nameS, pp, ps)
	}
	return h.run(ctx, eng, jobs)
}

// diffPairs maps a priority difference diff in [-5,+5] (at index diff+5)
// to the level pair the paper's experiments use: the primary thread moves
// first through the supervisor range (5,4)...(6,1), mirrored for negative
// differences.
var diffPairs = [11][2]prio.Level{
	0:  {prio.VeryLow, prio.High}, // diff -5
	1:  {prio.Low, prio.High},
	2:  {prio.MediumLow, prio.High},
	3:  {prio.Medium, prio.High},
	4:  {prio.Medium, prio.MediumHigh},
	5:  {prio.Medium, prio.Medium}, // diff 0
	6:  {prio.MediumHigh, prio.Medium},
	7:  {prio.High, prio.Medium},
	8:  {prio.High, prio.MediumLow},
	9:  {prio.High, prio.Low},
	10: {prio.High, prio.VeryLow}, // diff +5
}

// DiffPair maps a priority difference in [-5,+5] to the paper's level
// pair for that difference.
func DiffPair(diff int) (prio.Level, prio.Level) {
	if diff < -5 || diff > 5 {
		panic(fmt.Sprintf("experiments: priority difference %d out of range [-5,5]", diff))
	}
	p := diffPairs[diff+5]
	return p[0], p[1]
}

// Meas is one co-run measurement: per-thread and total IPC.
type Meas struct {
	Primary   float64
	Secondary float64
	Total     float64
}

// PairKey identifies a (primary, secondary) workload pair.
type PairKey struct{ P, S string }

// MatrixResult holds co-run measurements over a set of priority
// differences, plus single-thread IPCs; every micro-benchmark table and
// figure derives from it.
type MatrixResult struct {
	Primaries   []string
	Secondaries []string
	Diffs       []int
	Cells       map[PairKey]map[int]Meas
	SingleIPC   map[string]float64
	// Partial marks a matrix whose sweep was cancelled or had a job
	// fail: cells measured are present, the rest are missing.
	Partial bool
}

// batch accumulates jobs paired with the closure that consumes each
// job's result, so building and assigning cannot drift apart.
type batch struct {
	jobs   []engine.Job
	assign []func(fame.PairResult)
}

func (b *batch) add(j engine.Job, f func(fame.PairResult)) {
	b.jobs = append(b.jobs, j)
	b.assign = append(b.assign, f)
}

// runWith submits the batch and assigns every completed result. Jobs
// that did not complete stay unassigned: the returned error is the
// first job failure, naming the job (a backend can fail one, e.g. a
// worker whose simulation of it panicked), or else the
// cancellation error of a skipped job.
func (b *batch) runWith(ctx context.Context, h Harness, eng *engine.Engine) error {
	results := eng.RunFunc(ctx, b.jobs, h.progressFunc())
	var failed, cancelled error
	for i, r := range results {
		switch {
		case r.Err == nil:
			b.assign[i](r.Pair)
		case isCancel(r.Err):
			cancelled = r.Err
		case failed == nil:
			failed = fmt.Errorf("experiments: job %d (%s+%s): %w", i, r.Job.Primary, r.Job.Secondary, r.Err)
		}
	}
	if failed != nil {
		return failed
	}
	return cancelled
}

// RunMatrix measures every (primary, secondary) pair at every priority
// difference, plus each primary alone in ST mode. The whole matrix is
// submitted as one batch: independent cells simulate concurrently and
// repeated combinations (e.g. the shared diff=0 baseline) are cache hits.
// Workload names resolve through the engine registry, so primaries and
// secondaries may mix families and include registered custom kernels.
//
// Cancelling ctx, or a job failing, returns the partial matrix (Partial
// set, missing cells absent) together with the error (see runWith).
func RunMatrix(ctx context.Context, h Harness, primaries, secondaries []string, diffs []int) (*MatrixResult, error) {
	r := &MatrixResult{
		Primaries:   primaries,
		Secondaries: secondaries,
		Diffs:       diffs,
		Cells:       make(map[PairKey]map[int]Meas),
		SingleIPC:   make(map[string]float64),
	}
	eng := h.engine()
	var b batch
	for _, p := range primaries {
		b.add(h.singleJob(eng, p), func(res fame.PairResult) {
			r.SingleIPC[p] = res.Thread[0].IPC
		})
		for _, s := range secondaries {
			cell := make(map[int]Meas)
			r.Cells[PairKey{p, s}] = cell
			for _, d := range diffs {
				pp, ps := DiffPair(d)
				b.add(h.pairJob(eng, p, s, pp, ps), func(res fame.PairResult) {
					cell[d] = Meas{
						Primary:   res.Thread[0].IPC,
						Secondary: res.Thread[1].IPC,
						Total:     res.TotalIPC,
					}
				})
			}
		}
	}
	err := b.runWith(ctx, h, eng)
	r.Partial = err != nil
	return r, err
}

// Has reports whether the matrix holds a measurement for the combination
// (always true for complete runs over in-matrix keys).
func (m *MatrixResult) Has(p, s string, diff int) bool {
	cell, ok := m.Cells[PairKey{p, s}]
	if !ok {
		return false
	}
	_, ok = cell[diff]
	return ok
}

// At returns the measurement for a pair at a difference. It panics if the
// combination was not part of the matrix (harness bug, not user input) —
// except on a Partial matrix, where unmeasured combinations return the
// zero Meas so interrupted sweeps can still render.
func (m *MatrixResult) At(p, s string, diff int) Meas {
	cell, ok := m.Cells[PairKey{p, s}]
	if !ok {
		if m.Partial {
			return Meas{}
		}
		panic(fmt.Sprintf("experiments: pair (%s,%s) not in matrix", p, s))
	}
	meas, ok := cell[diff]
	if !ok {
		if m.Partial {
			return Meas{}
		}
		panic(fmt.Sprintf("experiments: diff %d not in matrix for (%s,%s)", diff, p, s))
	}
	return meas
}

// RelPrimary returns the primary thread's performance at diff relative to
// the equal-priority baseline (the paper's Figures 2 and 3 y-axis).
func (m *MatrixResult) RelPrimary(p, s string, diff int) float64 {
	base := m.At(p, s, 0).Primary
	if base == 0 {
		return 0
	}
	return m.At(p, s, diff).Primary / base
}

// RelTotal returns total IPC at diff relative to the equal-priority
// baseline (the paper's Figure 4 y-axis).
func (m *MatrixResult) RelTotal(p, s string, diff int) float64 {
	base := m.At(p, s, 0).Total
	if base == 0 {
		return 0
	}
	return m.At(p, s, diff).Total / base
}
