package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"power5prio"
)

// setupReps is how many times a regeneration's set-up is repeated on
// each processor; the median per processor is taken, so one descheduled
// construction does not move it.
const setupReps = 101

// correctSample is how many of a run's measurements the gate re-measures
// serially on a fresh System.
const correctSample = 3

// RunRegen runs cold matrices back to back until seconds have passed
// (at least one), checks the answers and returns the end-to-end report.
func RunRegen(ctx context.Context, w Regen, env *Env) (Result, []string, error) {
	env.Workers, env.Clients = 1, 1
	if err := env.CheckLoad(); err != nil {
		return Result{}, nil, err
	}
	p, s, d := w.Shuffled(env.Seed)

	perCPU, err := OnEachCPU(func() float64 {
		reps := make([]float64, setupReps)
		for i := range reps {
			t0 := time.Now()
			w.NewSystem()
			reps[i] = time.Since(t0).Seconds()
		}
		return Median(reps)
	})
	if err != nil {
		return Result{}, nil, err
	}

	var sweeps []Sweep
	var wall time.Duration
	for len(sweeps) == 0 || wall.Seconds() < env.Seconds {
		sw, err := w.RunSweep(ctx, p, s, d)
		if err != nil {
			return Result{}, nil, err
		}
		sweeps = append(sweeps, sw)
		wall += sw.Wall
	}

	var res Result
	var notes, problems []string
	walls := make([]string, len(sweeps))
	fastest := sweeps[0]
	for i, sw := range sweeps {
		walls[i] = fmt.Sprintf("%.3fs", sw.Wall.Seconds())
		if sw.Wall < fastest.Wall {
			fastest = sw
		}
		res.Attempted += w.Jobs()
		res.Failed += w.Jobs() - len(sw.Answers)
		for _, a := range sw.Answers {
			if a.Pair.TimedOut {
				problems = append(problems, fmt.Sprintf("%s timed out", a.Spec))
				res.Failed++
			}
		}
	}
	problems = append(problems, checkSweeps(ctx, w, env.Seed, sweeps)...)

	// Every matrix of a run does the same work, and interference from
	// the host only ever slows one down, so the rates come from the
	// fastest matrix and each measurement's latency is its fastest
	// of the run's repetitions.
	var cycles float64
	for _, a := range fastest.Answers {
		cycles += float64(a.Pair.Cycles)
	}
	secs := fastest.Wall.Seconds()
	dist := Summarize(fastestJobMs(sweeps))
	mae, n := PaperMAE(w.PaperIPCs(sweeps[0].Matrix))
	rss, err := PeakRSSMB(0)
	if err != nil {
		return Result{}, nil, err
	}
	res.Set("jobs_per_s", float64(len(fastest.Answers))/secs, "1/s")
	res.Set("queries_per_s", float64(len(fastest.Answers))/secs, "1/s")
	res.Set("sim_cycles_per_s", cycles/secs, "1/s")
	res.Set("query_p50_ms", dist.P50, "ms")
	res.Set("query_tail_ms", dist.Tail, "ms")
	res.Set("setup_s", mean(perCPU), "s")
	res.Set("max_rss_mb", rss, "MiB")
	res.Set("paper_ipc_mae", mae, "ipc")
	notes = append(notes,
		fmt.Sprintf("%d cold matrices of %d measurements in %.3fs (%s; 1 engine worker, no store); rates from the fastest",
			len(sweeps), w.Jobs(), wall.Seconds(), strings.Join(walls, " ")),
		fmt.Sprintf("a query is one measurement, timed at its fastest of %d; query_tail_ms is p%g of n=%d", len(sweeps), dist.TailP, dist.N),
		fmt.Sprintf("setup_s is the mean over %d processors of the median of %d System builds on each", len(perCPU), setupReps),
		fmt.Sprintf("paper_ipc_mae over %d Table 3 values", n),
		fmt.Sprintf("failed_frac=%g (sent %d, succeeded %d, failed %d)", float64(res.Failed)/float64(res.Attempted), res.Attempted, res.Attempted-res.Failed, res.Failed))
	for _, p := range problems {
		notes = append(notes, "INCORRECT: "+p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, notes, nil
}

// fastestJobMs returns each measurement's shortest time over the sweeps.
func fastestJobMs(sweeps []Sweep) []float64 {
	best := make(map[string]float64)
	for _, sw := range sweeps {
		for i, a := range sw.Answers {
			k := a.Spec.String()
			if v, ok := best[k]; !ok || sw.JobMs[i] < v {
				best[k] = sw.JobMs[i]
			}
		}
	}
	out := make([]float64, 0, len(best))
	for _, v := range best {
		out = append(out, v)
	}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// checkSweeps is the regeneration correctness gate: every sweep answers
// every measurement identically, and a seeded sample equals the same
// spec measured serially on a fresh local System.
func checkSweeps(ctx context.Context, w Regen, seed int64, sweeps []Sweep) []string {
	var problems []string
	first := make(map[string]power5prio.PairResult)
	for _, a := range sweeps[0].Answers {
		first[a.Spec.String()] = a.Pair
	}
	if len(first) != w.Jobs() {
		problems = append(problems, fmt.Sprintf("first matrix answered %d distinct measurements, want %d", len(first), w.Jobs()))
	}
	for i, sw := range sweeps[1:] {
		for _, a := range sw.Answers {
			if ref, ok := first[a.Spec.String()]; !ok || ref != a.Pair {
				problems = append(problems, fmt.Sprintf("matrix %d: %s differs from matrix 0", i+1, a.Spec))
			}
		}
	}
	answers := sweeps[0].Answers
	for _, i := range SampleIndexes(seed, len(answers), correctSample) {
		a := answers[i]
		ref, err := Reference(ctx, w.Opts, a.Spec)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		same, err := SameJSON(ref, a.Pair)
		if err != nil || !same {
			problems = append(problems, fmt.Sprintf("%s: matrix answer differs from the serial reference", a.Spec))
		}
	}
	return problems
}
