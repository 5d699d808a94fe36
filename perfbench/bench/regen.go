package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"power5prio"
)

// Regen is a figure-regeneration workload: one cold MeasureMatrix over
// Set×Set at Diffs, as `p5exp` or a library user regenerating the
// paper's figures runs it.
type Regen struct {
	Name  string
	Set   []string
	Diffs []int
	Opts  power5prio.MeasureOptions
}

// QuickOptions are the FAME options `p5exp -quick` uses.
func QuickOptions() power5prio.MeasureOptions {
	return power5prio.MeasureOptions{MinReps: 3, WarmupReps: 1, MaxCycles: 120_000_000}
}

// RegenWorkloads are the two regeneration workloads. regen_busy is
// dominated by stepped cycles (Chip.Step); regen_mem by cycles the
// event wheel skips (Chip.AdvanceToNextEvent).
var RegenWorkloads = map[string]Regen{
	"regen_busy": {
		Name:  "regen_busy",
		Set:   []string{"cpu_int", "cpu_fp", "lng_chain_cpuint", "br_miss", "ldint_l1"},
		Diffs: []int{-4, -2, 0, 2, 4},
		Opts:  QuickOptions(),
	},
	"regen_mem": {
		Name:  "regen_mem",
		Set:   []string{"ldint_mem", "ldint_l3", "ldfp_mem", "ldint_l2", "mcf"},
		Diffs: []int{-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5},
		Opts:  power5prio.DefaultMeasureOptions(),
	},
}

// Shuffled returns the matrix axes in a seed-determined order: the seed
// changes the submission order, never the set of measurements.
func (w Regen) Shuffled(seed int64) (primaries, secondaries []string, diffs []int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	primaries = append([]string(nil), w.Set...)
	secondaries = append([]string(nil), w.Set...)
	diffs = append([]int(nil), w.Diffs...)
	rng.Shuffle(len(primaries), func(i, j int) { primaries[i], primaries[j] = primaries[j], primaries[i] })
	rng.Shuffle(len(secondaries), func(i, j int) { secondaries[i], secondaries[j] = secondaries[j], secondaries[i] })
	rng.Shuffle(len(diffs), func(i, j int) { diffs[i], diffs[j] = diffs[j], diffs[i] })
	return primaries, secondaries, diffs
}

// Jobs is the number of measurements one matrix makes.
func (w Regen) Jobs() int { return len(w.Set) * (1 + len(w.Set)*len(w.Diffs)) }

// NewSystem builds the System a regeneration runs on: one engine
// worker, no store, the workload's FAME options.
func (w Regen) NewSystem(opts ...power5prio.Option) *power5prio.System {
	base := []power5prio.Option{power5prio.WithWorkers(1), power5prio.WithMeasureOptions(w.Opts)}
	return power5prio.New(power5prio.DefaultConfig(), append(base, opts...)...)
}

// Answer is one measurement a matrix produced, in completion order.
type Answer struct {
	Spec power5prio.Spec
	Pair power5prio.PairResult
}

// Sweep is one cold matrix run.
type Sweep struct {
	Wall    time.Duration
	Answers []Answer
	// JobMs is the host time between consecutive completions: with one
	// engine worker, the time each measurement took.
	JobMs  []float64
	Matrix *power5prio.MatrixResult
	Stats  power5prio.BatchStats
}

// RunSweep makes one cold matrix run on a fresh System.
func (w Regen) RunSweep(ctx context.Context, primaries, secondaries []string, diffs []int) (Sweep, error) {
	var sw Sweep
	var last time.Time
	progress := func(_, _ int, sp power5prio.Spec, res power5prio.PairResult) {
		now := time.Now()
		sw.JobMs = append(sw.JobMs, float64(now.Sub(last))/1e6)
		last = now
		sw.Answers = append(sw.Answers, Answer{sp, res})
	}
	sys := w.NewSystem(power5prio.WithProgress(progress))
	start := time.Now()
	last = start
	m, err := sys.MeasureMatrix(ctx, primaries, secondaries, diffs)
	sw.Wall = time.Since(start)
	if err != nil {
		return sw, fmt.Errorf("%s: %w", w.Name, err)
	}
	sw.Matrix = m
	sw.Stats = sys.BatchStats()
	return sw, nil
}

// PaperIPCs extracts the values of a sweep that Table 3 holds: both
// regeneration workloads sweep diff 0, the paper's (4,4).
func (w Regen) PaperIPCs(m *power5prio.MatrixResult) IPCs {
	got := IPCs{ST: map[string]float64{}, SMT: map[[2]string][2]float64{}}
	for _, p := range w.Set {
		got.ST[p] = m.SingleIPC[p]
		for _, s := range w.Set {
			c := m.At(p, s, 0)
			got.SMT[[2]string{p, s}] = [2]float64{c.Primary, c.Total}
		}
	}
	return got
}

// SameJSON reports whether two measurements encode to identical bytes:
// the byte-identity the correctness gate demands.
func SameJSON(a, b power5prio.PairResult) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}

// Reference measures a spec serially on a fresh local System with the
// given FAME options: the value every other path must reproduce.
func Reference(ctx context.Context, opts power5prio.MeasureOptions, sp power5prio.Spec) (power5prio.PairResult, error) {
	sys := power5prio.New(power5prio.DefaultConfig(), power5prio.WithWorkers(1), power5prio.WithMeasureOptions(opts))
	sp.Estimate, sp.EstimateTol = power5prio.EstimateNever, 0
	res, err := sys.Measure(ctx, sp)
	if err != nil {
		return res, fmt.Errorf("reference %s: %w", sp, err)
	}
	return res, nil
}

// SampleIndexes picks k distinct indexes below n, seeded.
func SampleIndexes(seed int64, n, k int) []int {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed5a4b1e))
	return rng.Perm(n)[:min(k, n)]
}
