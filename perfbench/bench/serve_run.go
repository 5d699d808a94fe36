package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"power5prio"
)

// serveSetupReps is how many times serve_mixed's set-up (pre-warm the
// store, start p5d and p5worker) is repeated; the median is reported
// and the last daemon serves the run.
const serveSetupReps = 3

// Served is a set-up serving stack: the daemon plus the reference value
// of every pre-warmed key.
type Served struct {
	*Daemon
	Dir  string
	Refs map[string]power5prio.PairResult
}

// Close stops the daemon and removes its scratch directory.
func (s *Served) Close() {
	s.Daemon.Stop()
	os.RemoveAll(s.Dir)
}

// Setup pre-warms a fresh store with the warm keys, measured serially
// on a local System, then starts p5d on that store with one registered
// p5worker.
func (sv Serve) Setup(ctx context.Context, bin, work string) (*Served, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	cache := filepath.Join(dir, "cache")
	sys := power5prio.New(power5prio.DefaultConfig(), power5prio.WithWorkers(1),
		power5prio.WithMeasureOptions(sv.Opts), power5prio.WithCacheDir(cache))
	warm, err := sys.MeasureBatch(ctx, sv.Warm)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	refs := make(map[string]power5prio.PairResult, len(warm))
	for i, sp := range sv.Warm {
		refs[Key(sp)] = warm[i]
	}
	d, err := StartDaemon(ctx, bin, dir, cache)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &Served{Daemon: d, Dir: dir, Refs: refs}, nil
}

// QueryRecord is one answered query as its client saw it.
type QueryRecord struct {
	Class     string
	Specs     int
	Ms        float64       // query latency: fresh System plus MeasureResults
	Done      time.Duration // completion, since the load started
	Cycles    float64       // simulated cycles behind the exact answers
	NewUs     float64       // of which power5prio.New
	Estimated int           // specs answered by tier 0
	EstSpecs  int           // specs that asked for an estimate
}

// Load is the outcome of a closed-loop run.
type Load struct {
	Wall     time.Duration
	Records  []QueryRecord
	Answers  int // specs answered
	Failed   int // specs that errored or were skipped
	Problems []string
	// First is the first exact answer each key received; every later
	// answer for the key was checked equal to it.
	First map[string]power5prio.PairResult
}

// clientState is one client's share of a Load, merged at the end.
type clientState struct {
	Load
	first map[string]power5prio.PairResult
}

// RunLoad runs clients closed-loop clients against addr for dur: each
// sends its next query only once the previous one answered. refs holds
// the exact value of every key an estimate may be asked for. With a
// non-nil recorder every query leaves a span tree.
func (sv Serve) RunLoad(ctx context.Context, addr string, seed int64, clients int, dur time.Duration,
	refs map[string]power5prio.PairResult, rec *Recorder) Load {
	cold := make(map[string]bool)
	for _, sp := range sv.Cold {
		cold[Key(sp)] = true
	}
	var mu sync.Mutex
	touched := make(map[string]bool)
	var nextReq int

	states := make([]clientState, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range states {
		wg.Add(1)
		go func(st *clientState, gen *Generator) {
			defer wg.Done()
			st.first = make(map[string]power5prio.PairResult)
			for time.Since(start) < dur && ctx.Err() == nil {
				q := gen.Next()
				mu.Lock()
				class := Classify(q, touched, cold)
				nextReq++
				req := nextReq
				mu.Unlock()
				t0 := time.Now()
				sys := power5prio.New(power5prio.DefaultConfig(), power5prio.WithService(addr), power5prio.WithMeasureOptions(sv.Opts))
				t1 := time.Now()
				res, err := sys.MeasureResults(ctx, q.Specs)
				t2 := time.Now()
				if rec != nil {
					root := rec.Add(Span{Name: "query." + class, Req: req, Start: rec.At(t0), End: rec.At(t2)})
					rec.Add(Span{Name: "power5prio.new", Parent: root, Req: req, Start: rec.At(t0), End: rec.At(t1)})
					rec.Add(Span{Name: "power5prio.measure_results", Parent: root, Req: req, Start: rec.At(t1), End: rec.At(t2), Count: int64(len(q.Specs))})
				}
				r := QueryRecord{Class: class, Specs: len(q.Specs), Ms: float64(t2.Sub(t0)) / 1e6,
					NewUs: float64(t1.Sub(t0)) / 1e3, Done: t2.Sub(start)}
				if err != nil {
					st.Failed += len(q.Specs)
					st.Problems = append(st.Problems, fmt.Sprintf("query of %d specs: %v", len(q.Specs), err))
					continue
				}
				st.check(q, res, refs, &r)
				st.Records = append(st.Records, r)
			}
		}(&states[c], sv.NewGenerator(seed, c))
	}
	wg.Wait()

	out := Load{Wall: time.Since(start), First: make(map[string]power5prio.PairResult)}
	for _, st := range states {
		out.Records = append(out.Records, st.Records...)
		out.Answers += st.Answers
		out.Failed += st.Failed
		out.Problems = append(out.Problems, st.Problems...)
		for k, v := range st.first {
			if f, ok := out.First[k]; ok && f != v {
				out.Problems = append(out.Problems, fmt.Sprintf("%s: clients received different answers", k))
			}
			out.First[k] = v
		}
	}
	return out
}

// check is the per-answer part of the correctness gate: no answer
// errors, is skipped or timed out; an estimate is flagged, was asked
// for and lies within its error bar of the exact value; every exact
// answer for a key is identical.
func (st *clientState) check(q Query, res []power5prio.MeasureResult, refs map[string]power5prio.PairResult, r *QueryRecord) {
	for i, m := range res {
		sp := q.Specs[i]
		k := Key(sp)
		if sp.Estimate == power5prio.EstimateWithin {
			r.EstSpecs++
		}
		switch {
		case m.Err != nil || m.Skipped:
			st.Failed++
			st.Problems = append(st.Problems, fmt.Sprintf("%s: not answered: %v", sp, m.Err))
			continue
		case m.Pair.TimedOut:
			st.Problems = append(st.Problems, fmt.Sprintf("%s: timed out", sp))
		}
		st.Answers++
		if m.Estimated {
			r.Estimated++
			if sp.Estimate != power5prio.EstimateWithin {
				st.Problems = append(st.Problems, fmt.Sprintf("%s: estimate served to an exact spec", sp))
			}
			if msg := withinBar(m, refs[k]); msg != "" {
				st.Problems = append(st.Problems, fmt.Sprintf("%s: %s", sp, msg))
			}
			continue
		}
		r.Cycles += float64(m.Pair.Cycles)
		if f, ok := st.first[k]; !ok {
			st.first[k] = m.Pair
		} else if f != m.Pair {
			st.Problems = append(st.Problems, fmt.Sprintf("%s: answer changed between queries", sp))
		}
	}
}

// withinBar checks an estimate against the exact value it stands for.
func withinBar(m power5prio.MeasureResult, exact power5prio.PairResult) string {
	if !exact.Thread[0].Active {
		return "estimate for a key with no exact reference"
	}
	for t, th := range exact.Thread {
		if th.Active && math.Abs(m.Pair.Thread[t].IPC-th.IPC) > m.ErrorBar {
			return fmt.Sprintf("thread %d estimate %.4f is %.4f from exact %.4f, beyond error bar %.4f",
				t, m.Pair.Thread[t].IPC, math.Abs(m.Pair.Thread[t].IPC-th.IPC), th.IPC, m.ErrorBar)
		}
	}
	return ""
}

// CheckServed compares every key's served answer byte for byte with its
// reference: the pre-warm value for warm keys, a fresh serial local
// measurement for cold ones. It also re-measures a seeded sample of the
// warm references the same way.
func (sv Serve) CheckServed(ctx context.Context, seed int64, refs, first map[string]power5prio.PairResult) []string {
	var problems []string
	all := make(map[string]power5prio.PairResult, len(refs))
	for k, v := range refs {
		all[k] = v
	}
	for _, sp := range sv.Cold {
		k := Key(sp)
		if _, ok := first[k]; !ok {
			continue // never asked for in this run
		}
		ref, err := Reference(ctx, sv.Opts, sp)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		all[k] = ref
	}
	for _, i := range SampleIndexes(seed, len(sv.Warm), correctSample) {
		sp := sv.Warm[i]
		ref, err := Reference(ctx, sv.Opts, sp)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if same, err := SameJSON(ref, all[Key(sp)]); err != nil || !same {
			problems = append(problems, fmt.Sprintf("%s: pre-warmed value differs from the serial reference", sp))
		}
	}
	for k, got := range first {
		ref, ok := all[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: served a key outside the workload", k))
			continue
		}
		if same, err := SameJSON(ref, got); err != nil || !same {
			problems = append(problems, fmt.Sprintf("%s: served answer differs from the local reference", k))
		}
	}
	return problems
}

// PaperIPCs extracts the Table 3 values among the warm references.
func (sv Serve) PaperIPCs(refs map[string]power5prio.PairResult) IPCs {
	got := IPCs{ST: map[string]float64{}, SMT: map[[2]string][2]float64{}}
	for _, sp := range sv.Warm {
		r := refs[Key(sp)]
		switch {
		case sp.B == "":
			got.ST[sp.A] = r.Thread[0].IPC
		case sp.PA == power5prio.Medium && sp.PB == power5prio.Medium:
			got.SMT[[2]string{sp.A, sp.B}] = [2]float64{r.Thread[0].IPC, r.TotalIPC}
		}
	}
	return got
}

// rateWindow is the width of the windows serve_mixed's rates are taken
// over. Reporting the mean of the middle half of the windows instead of
// the whole-run mean keeps a stall of a second or two from moving the
// rates.
const rateWindow = time.Second

// Rates are a load's throughputs per second of host time.
type Rates struct {
	Queries, Specs, Cycles float64
	Windows                int
}

// WindowRates splits the load into whole windows (the clients stop
// sending at the deadline, so the last partial window is dropped) and
// returns each rate's MidMean over them. With less than one whole
// window it returns the whole-run rates.
func WindowRates(records []QueryRecord, wall, window time.Duration) Rates {
	n := int(wall / window)
	if n < 1 {
		var r Rates
		for _, q := range records {
			r.Queries++
			r.Specs += float64(q.Specs)
			r.Cycles += q.Cycles
		}
		s := wall.Seconds()
		return Rates{Queries: r.Queries / s, Specs: r.Specs / s, Cycles: r.Cycles / s}
	}
	qs, ss, cs := make([]float64, n), make([]float64, n), make([]float64, n)
	for _, q := range records {
		if k := int(q.Done / window); k < n {
			qs[k]++
			ss[k] += float64(q.Specs)
			cs[k] += q.Cycles
		}
	}
	w := window.Seconds()
	return Rates{Queries: MidMean(qs) / w, Specs: MidMean(ss) / w, Cycles: MidMean(cs) / w, Windows: n}
}

// ServeClients is the number of load-generator clients: two, or fewer
// on a host with fewer processors.
func ServeClients(nproc int) int { return min(2, nproc) }

// RunServe is serve_mixed's end-to-end run.
func RunServe(ctx context.Context, sv Serve, env *Env, bin, work string) (Result, []string, error) {
	env.Workers, env.Clients = 1, ServeClients(env.NProc)
	if err := env.CheckLoad(); err != nil {
		return Result{}, nil, err
	}
	var setup []float64
	var served *Served
	for range serveSetupReps {
		if served != nil {
			served.Close()
		}
		t0 := time.Now()
		s, err := sv.Setup(ctx, bin, work)
		if err != nil {
			return Result{}, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		served = s
	}
	defer served.Close()

	load := sv.RunLoad(ctx, served.Addr, env.Seed, env.Clients, time.Duration(env.Seconds*float64(time.Second)), served.Refs, nil)
	stats, err := served.Stats(ctx)
	if err != nil {
		return Result{}, nil, fmt.Errorf("daemon stats: %w", err)
	}
	childRSS, err := served.PeakRSSMB()
	if err != nil {
		return Result{}, nil, err
	}
	selfRSS, err := PeakRSSMB(0)
	if err != nil {
		return Result{}, nil, err
	}
	problems := append(load.Problems, sv.CheckServed(ctx, env.Seed, served.Refs, load.First)...)

	var res Result
	res.Attempted = load.Answers + load.Failed
	res.Failed = load.Failed
	wall := load.Wall.Seconds()
	lat := make([]float64, len(load.Records))
	byClass := make(map[string][]float64)
	for i, r := range load.Records {
		lat[i] = r.Ms
		byClass[r.Class] = append(byClass[r.Class], r.Ms)
	}
	dist := Summarize(lat)
	mae, n := PaperMAE(sv.PaperIPCs(served.Refs))
	rates := WindowRates(load.Records, load.Wall, rateWindow)
	res.Set("jobs_per_s", rates.Specs, "1/s")
	res.Set("queries_per_s", rates.Queries, "1/s")
	res.Set("sim_cycles_per_s", rates.Cycles, "1/s")
	res.Set("query_p50_ms", dist.P50, "ms")
	res.Set("query_tail_ms", dist.Tail, "ms")
	res.Set("setup_s", Median(setup), "s")
	res.Set("max_rss_mb", selfRSS+childRSS, "MiB")
	res.Set("paper_ipc_mae", mae, "ipc")

	notes := []string{
		fmt.Sprintf("%d closed-loop clients, %d queries (%d specs) in %.3fs against p5d -fleet + 1 p5worker", env.Clients, len(load.Records), res.Attempted, wall),
		fmt.Sprintf("rates are medians over %d windows of %v; query_tail_ms is p%g of n=%d", rates.Windows, rateWindow, dist.TailP, dist.N),
		fmt.Sprintf("paper_ipc_mae over %d Table 3 values", n),
		fmt.Sprintf("failed_frac=%g (sent %d, succeeded %d, failed %d)", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Attempted, load.Answers, res.Failed),
		fmt.Sprintf("p5d: submitted=%d simulated=%d hits=%d disk_hits=%d coalesced=%d estimated=%d rejected=%d requeued=%d",
			stats.Submitted, stats.Simulated, stats.Hits, stats.DiskHits, stats.Coalesced, stats.EstimatedHits, stats.Rejected, stats.Requeued),
	}
	for _, c := range Classes {
		d := Summarize(byClass[c])
		notes = append(notes, fmt.Sprintf("class %-8s n=%-6d p50=%.3fms p%g=%.3fms", c, d.N, d.P50, d.TailP, d.Tail))
	}
	for _, p := range problems {
		notes = append(notes, "INCORRECT: "+p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, notes, nil
}
