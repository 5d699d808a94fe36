package main

import (
	"context"
	"fmt"
	"time"

	"power5prio"
	"power5prio/perfbench/bench"

	"power5prio/internal/engine"
	"power5prio/internal/remote"
	"power5prio/internal/workload"
)

// probeSeconds is how long the serving probe of a regen_* traced run
// loads the daemon: long enough for every query class to occur.
const probeSeconds = 3

// dispatchSample is how many jobs are sent straight to the worker to
// time the p5remote round trip.
const dispatchSample = 3

// traceRegen traces one cold matrix. The untraced sweep (public API)
// gives the reference answers and wall time; the traced replay of the
// same jobs in the same order gives the simulator layers and the
// tracing overhead. Engine counters are the sweep's own; the serving
// rows come from a short serving probe, which regen_* should leave flat.
func traceRegen(ctx context.Context, w bench.Regen, env *bench.Env, rec *bench.Recorder, l *bench.Result, bin, work string) ([]string, error) {
	env.Workers, env.Clients = 1, bench.ServeClients(env.NProc)
	if err := env.CheckLoad(); err != nil {
		return nil, err
	}
	p, s, d := w.Shuffled(env.Seed)
	sw, err := w.RunSweep(ctx, p, s, d)
	if err != nil {
		return nil, err
	}
	reg := workload.NewRegistry()
	var tot simTotals
	jobs := make([]done, len(sw.Answers))
	measure := make([]time.Duration, len(sw.Answers))
	var problems []string
	t0 := time.Now()
	for i, a := range sw.Answers {
		j, err := jobOf(reg, a.Spec, w.Opts)
		if err != nil {
			return nil, err
		}
		res, dt, err := replay(rec, reg, j, i, &tot)
		if err != nil {
			return nil, err
		}
		if res != a.Pair {
			problems = append(problems, fmt.Sprintf("%s: traced replay differs from the untraced answer", a.Spec))
		}
		jobs[i], measure[i] = done{j, res}, dt
	}
	traced := time.Since(t0)
	tot.set(l)
	l.Set("trace_overhead_frac", traced.Seconds()/sw.Wall.Seconds()-1, "ratio")

	st := sw.Stats
	l.Set("engine.hit_frac", ratio(float64(st.Hits), float64(st.Submitted)), "ratio")
	l.Set("engine.disk_hit_frac", ratio(float64(st.DiskHits), float64(st.Submitted)), "ratio")
	l.Set("engine.coalesced", float64(st.Coalesced), "count")
	l.Set("engine.simulated", float64(st.Simulated), "count")
	newSys := timeEach(rec, "power5prio.new", 1, func(int) { w.NewSystem() })
	l.Set("power5prio.new_us", us(newSys), "us")

	if err := engineProbes(ctx, rec, l, jobs); err != nil {
		return nil, err
	}
	if err := storeProbe(rec, l, work, jobs); err != nil {
		return nil, err
	}
	served, err := analyticProbe(rec, l, jobs)
	if err != nil {
		return nil, err
	}
	l.Set("analytic.served_frac", served, "ratio")
	if err := wireProbe(rec, l, [][]done{jobs}); err != nil {
		return nil, err
	}

	// The serving rows: a short serve_mixed load, plus this workload's
	// cheapest jobs dispatched straight to the worker.
	sv := bench.ServeMixed()
	stack, err := sv.Setup(ctx, bin, work)
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	load := sv.RunLoad(ctx, stack.Addr, env.Seed, env.Clients, probeSeconds*time.Second, stack.Refs, rec)
	problems = append(problems, load.Problems...)
	problems = append(problems, sv.CheckServed(ctx, env.Seed, stack.Refs, load.First)...)
	dstats, err := stack.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("daemon stats: %w", err)
	}
	serviceRows(l, load, dstats)
	idx := cheapest(measure, dispatchSample)
	sample := make([]done, len(idx))
	dts := make([]time.Duration, len(idx))
	for k, i := range idx {
		sample[k], dts[k] = jobs[i], measure[i]
	}
	dispatch, err := dispatchProbe(ctx, rec, stack.Worker, sample, dts)
	if err != nil {
		return nil, err
	}
	l.Set("remote.dispatch_ms", dispatch, "ms")

	l.Attempted = len(sw.Answers) + load.Answers + load.Failed
	l.Failed = load.Failed
	l.Correct = len(problems) == 0 && l.Failed == 0
	notes := []string{
		fmt.Sprintf("untraced matrix %.3fs, traced replay %.3fs over %d jobs (1 Step and 1 AdvanceToNextEvent call in %d timed)",
			sw.Wall.Seconds(), traced.Seconds(), len(jobs), sampleEvery),
		fmt.Sprintf("engine.* counts are the matrix's own; service.* and remote.dispatch_ms come from a %ds serve_mixed probe with %d clients", probeSeconds, env.Clients),
		"analytic.served_frac is the share of the matrix's pair jobs tier 0 could answer at the default tolerance",
	}
	for _, p := range problems {
		notes = append(notes, "INCORRECT: "+p)
	}
	return notes, nil
}

// traceServe runs the serving load four times on fresh stacks for a
// quarter of the run each, traced, untraced, untraced, traced: the
// symmetric order cancels a steady drift in host speed out of
// trace_overhead_frac. The serving layers come from the two traced
// quarters. The simulator layers come from replaying the work the
// worker does: the cold keys, plus a seeded sample of warm keys that
// are also dispatched straight to the worker.
func traceServe(ctx context.Context, sv bench.Serve, env *bench.Env, rec *bench.Recorder, l *bench.Result, bin, work string) ([]string, error) {
	env.Workers, env.Clients = 1, bench.ServeClients(env.NProc)
	if err := env.CheckLoad(); err != nil {
		return nil, err
	}
	quarter := time.Duration(env.Seconds / 4 * float64(time.Second))
	var problems []string
	var untraced, traced bench.Load
	var stack *bench.Served
	order := []*bench.Recorder{rec, nil, nil, rec}
	for i, r := range order {
		st, err := sv.Setup(ctx, bin, work)
		if err != nil {
			return nil, err
		}
		ld := sv.RunLoad(ctx, st.Addr, env.Seed, env.Clients, quarter, st.Refs, r)
		problems = append(problems, ld.Problems...)
		problems = append(problems, sv.CheckServed(ctx, env.Seed, st.Refs, ld.First)...)
		if r != nil {
			merge(&traced, ld)
		} else {
			merge(&untraced, ld)
		}
		if i < len(order)-1 {
			st.Close()
			continue
		}
		stack = st
	}
	defer stack.Close()
	qps := func(ld bench.Load) float64 { return float64(len(ld.Records)) / ld.Wall.Seconds() }
	l.Set("trace_overhead_frac", qps(untraced)/qps(traced)-1, "ratio")

	dstats, err := stack.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("daemon stats: %w", err)
	}
	serviceRows(l, traced, dstats)
	sub := float64(dstats.Submitted)
	l.Set("engine.hit_frac", ratio(float64(dstats.Hits), sub), "ratio")
	l.Set("engine.disk_hit_frac", ratio(float64(dstats.DiskHits), sub), "ratio")
	l.Set("engine.coalesced", float64(dstats.Coalesced), "count")
	l.Set("engine.simulated", float64(dstats.Simulated), "count")
	var newUs []float64
	estimated, asked := 0, 0
	for _, r := range traced.Records {
		newUs = append(newUs, r.NewUs)
		estimated += r.Estimated
		asked += r.EstSpecs
	}
	l.Set("power5prio.new_us", bench.Median(newUs), "us")
	l.Set("analytic.served_frac", ratio(float64(estimated), float64(asked)), "ratio")

	// The run's keys with their exact answers.
	reg := workload.NewRegistry()
	all := make(map[string]done)
	var jobs []done
	for _, sp := range append(append([]power5prio.Spec(nil), sv.Warm...), sv.Cold...) {
		k := bench.Key(sp)
		pair, ok := stack.Refs[k]
		if !ok {
			if pair, ok = traced.First[k]; !ok {
				continue // a cold key this run never asked for
			}
		}
		j, err := jobOf(reg, sp, sv.Opts)
		if err != nil {
			return nil, err
		}
		all[k] = done{j, pair}
		jobs = append(jobs, all[k])
	}
	if err := engineProbes(ctx, rec, l, jobs); err != nil {
		return nil, err
	}
	if err := storeProbe(rec, l, work, jobs); err != nil {
		return nil, err
	}
	if _, err := analyticProbe(rec, l, jobs); err != nil {
		return nil, err
	}
	if err := wireProbe(rec, l, queryBatches(sv, env.Seed, all)); err != nil {
		return nil, err
	}

	// Replay the worker's share: the cold keys it simulated and a
	// sample of warm keys, which are then dispatched to it directly.
	var tot simTotals
	var sample []done
	var dts []time.Duration
	replayOne := func(sp power5prio.Spec, req int) (done, time.Duration, error) {
		d := all[bench.Key(sp)]
		res, dt, err := replay(rec, reg, d.job, req, &tot)
		if err == nil && res != d.pair {
			problems = append(problems, fmt.Sprintf("%s: traced replay differs from the served answer", sp))
		}
		return d, dt, err
	}
	for i, sp := range sv.Cold {
		if _, ok := all[bench.Key(sp)]; !ok {
			continue
		}
		if _, _, err := replayOne(sp, i); err != nil {
			return nil, err
		}
	}
	for _, i := range bench.SampleIndexes(env.Seed, len(sv.Warm), dispatchSample) {
		d, dt, err := replayOne(sv.Warm[i], len(sv.Cold)+i)
		if err != nil {
			return nil, err
		}
		sample, dts = append(sample, d), append(dts, dt)
	}
	tot.set(l)
	dispatch, err := dispatchProbe(ctx, rec, stack.Worker, sample, dts)
	if err != nil {
		return nil, err
	}
	l.Set("remote.dispatch_ms", dispatch, "ms")

	l.Attempted = untraced.Answers + untraced.Failed + traced.Answers + traced.Failed
	l.Failed = untraced.Failed + traced.Failed
	l.Correct = len(problems) == 0 && l.Failed == 0
	notes := []string{
		fmt.Sprintf("untraced quarters: %d queries in %.3fs; traced quarters: %d queries in %.3fs; %d clients",
			len(untraced.Records), untraced.Wall.Seconds(), len(traced.Records), traced.Wall.Seconds(), env.Clients),
		"engine.* counts are the last quarter's daemon's",
		fmt.Sprintf("simulator rows replay %d jobs the worker ran (cold keys and a dispatch sample)", tot.jobs),
	}
	for _, p := range problems {
		notes = append(notes, "INCORRECT: "+p)
	}
	return notes, nil
}

// merge adds a quarter's load to a running total.
func merge(into *bench.Load, ld bench.Load) {
	into.Wall += ld.Wall
	into.Records = append(into.Records, ld.Records...)
	into.Answers += ld.Answers
	into.Failed += ld.Failed
	if into.First == nil {
		into.First = make(map[string]power5prio.PairResult)
	}
	for k, v := range ld.First {
		into.First[k] = v
	}
}

// serviceRows records the serving layer: median query latency per
// generator class, and the daemon's rejection and requeue counters.
func serviceRows(l *bench.Result, load bench.Load, st bench.DaemonStats) {
	by := make(map[string][]float64)
	for _, r := range load.Records {
		by[r.Class] = append(by[r.Class], r.Ms)
	}
	for _, c := range bench.Classes {
		v := bench.Median(by[c])
		if len(by[c]) == 0 {
			v = 0 // the class did not occur
		}
		l.Set("service.query_ms."+c, v, "ms")
	}
	l.Set("service.rejected", float64(st.Rejected), "count")
	l.Set("service.requeued", float64(st.Requeued), "count")
}

// dispatchProbe sends each job alone to the worker over p5remote and
// returns the mean round trip minus the job's own measurement time:
// what the wire, the HTTP stack and the worker's engine add.
func dispatchProbe(ctx context.Context, rec *bench.Recorder, worker string, jobs []done, measure []time.Duration) (float64, error) {
	be := remote.NewHTTPBackend(worker)
	var sum time.Duration
	for i, d := range jobs {
		t0 := time.Now()
		res, err := be.Run(ctx, []engine.Job{d.job})
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("dispatch to %s: %w", worker, err)
		}
		if res[0].Err != nil || res[0].Pair != d.pair {
			return 0, fmt.Errorf("dispatch to %s: answer differs from the local one (%v)", worker, res[0].Err)
		}
		rec.Add(bench.Span{Name: "remote.dispatch", Req: i, Start: rec.At(t0), End: rec.At(t1)})
		sum += t1.Sub(t0) - measure[i]
	}
	return float64(sum) / float64(len(jobs)) / 1e6, nil
}

// cheapest returns the indexes of the k shortest durations.
func cheapest(ds []time.Duration, k int) []int {
	idx := make([]int, 0, k)
	used := make([]bool, len(ds))
	for len(idx) < k && len(idx) < len(ds) {
		best := -1
		for i, d := range ds {
			if !used[i] && (best < 0 || d < ds[best]) {
				best = i
			}
		}
		used[best] = true
		idx = append(idx, best)
	}
	return idx
}

// queryBatches regenerates the first queries of client 0's stream and
// returns the exact-answer ones as wire batches: the batch sizes this
// run sent.
func queryBatches(sv bench.Serve, seed int64, all map[string]done) [][]done {
	gen := sv.NewGenerator(seed, 0)
	var out [][]done
	for len(out) < 64 {
		q := gen.Next()
		if q.Estimates() {
			continue
		}
		var b []done
		for _, sp := range q.Specs {
			if d, ok := all[bench.Key(sp)]; ok {
				b = append(b, d)
			}
		}
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}
