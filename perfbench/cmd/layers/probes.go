package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"power5prio/perfbench/bench"

	"power5prio/internal/analytic"
	"power5prio/internal/cachestore"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/remote"
	"power5prio/internal/service"
)

// minProbe is how long a micro-probe repeats its calls at least, so
// sub-microsecond calls are timed over many repetitions.
const minProbe = 20 * time.Millisecond

// timeEach runs fn over n items repeatedly for at least minProbe and
// returns the mean time per call. It records one span for the whole
// probe, carrying the call count.
func timeEach(rec *bench.Recorder, name string, n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < minProbe {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	t1 := time.Now()
	rec.Add(bench.Span{Name: name, Start: rec.At(t0), End: rec.At(t1), Count: int64(calls)})
	return t1.Sub(t0) / time.Duration(calls)
}

// done pairs a job with the exact result it produced in this run.
type done struct {
	job  engine.Job
	pair fame.PairResult
}

// engineProbes times engine.JobKey over the run's jobs and an
// in-process Engine.Run answered from the memory tier.
func engineProbes(ctx context.Context, rec *bench.Recorder, l *bench.Result, jobs []done) error {
	keys := timeEach(rec, "engine.jobkey", len(jobs), func(i int) { engine.JobKey(jobs[i].job) })
	l.Set("engine.jobkey_us", us(keys), "us")

	// A memory hit costs the same whatever the job; use the cheapest.
	cheap := jobs[0]
	for _, d := range jobs[1:] {
		if d.pair.Cycles < cheap.pair.Cycles {
			cheap = d
		}
	}
	eng := engine.New(1)
	batch := []engine.Job{cheap.job}
	if r := eng.Run(ctx, batch); r[0].Err != nil {
		return fmt.Errorf("engine probe: %w", r[0].Err)
	}
	var hitErr error
	hit := timeEach(rec, "engine.mem_hit", 1, func(int) {
		if r := eng.Run(ctx, batch); !r[0].CacheHit || r[0].Pair != cheap.pair {
			hitErr = fmt.Errorf("engine probe: repeat run of %v was not a memory hit with the same answer", cheap.job.Primary)
		}
	})
	l.Set("engine.mem_hit_us", us(hit), "us")
	return hitErr
}

// storeProbe replays the run's keys on a scratch store: one Put and
// one Get per key, each timed.
func storeProbe(rec *bench.Recorder, l *bench.Result, work string, jobs []done) error {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := cachestore.Open(dir)
	if err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	keys := make([]cachestore.Key, len(jobs))
	vals := make([][]byte, len(jobs))
	for i, d := range jobs {
		keys[i] = engine.JobKey(d.job)
		if vals[i], err = json.Marshal(d.pair); err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
	}
	var putNs, getNs time.Duration
	for i := range jobs {
		t0 := time.Now()
		if err := st.Put(keys[i], vals[i]); err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		t1 := time.Now()
		got, err := st.Get(keys[i])
		t2 := time.Now()
		if err != nil || string(got) != string(vals[i]) {
			return fmt.Errorf("store get of a key just put: %v", err)
		}
		putNs += t1.Sub(t0)
		getNs += t2.Sub(t1)
		rec.Add(bench.Span{Name: "cachestore.put", Req: i, Start: rec.At(t0), End: rec.At(t1)})
		rec.Add(bench.Span{Name: "cachestore.get", Req: i, Start: rec.At(t1), End: rec.At(t2)})
	}
	n := time.Duration(len(jobs))
	l.Set("cachestore.put_us", us(putNs/n), "us")
	l.Set("cachestore.get_us", us(getNs/n), "us")
	return nil
}

// analyticProbe calibrates a fresh tier-0 model on the run's pair jobs
// and times its estimates. It returns the share of pair jobs tier 0 can
// serve at the default tolerance.
func analyticProbe(rec *bench.Recorder, l *bench.Result, jobs []done) (servedFrac float64, err error) {
	var pairs []engine.Job
	for _, d := range jobs {
		if !d.job.Secondary.IsZero() {
			pairs = append(pairs, d.job)
		}
	}
	if len(pairs) == 0 {
		return 0, fmt.Errorf("analytic probe: no pair jobs")
	}
	m := analytic.New(engine.New(1))
	var calNs time.Duration
	cals, served := 0, 0
	for i, j := range pairs {
		before := m.Calibrations()
		t0 := time.Now()
		p, err := m.Describe(j)
		dt := time.Since(t0)
		if n := m.Calibrations() - before; n > 0 {
			calNs += dt
			cals += n
			rec.Add(bench.Span{Name: "analytic.calibrate", Req: i, Start: rec.At(t0), End: rec.At(t0.Add(dt)), Count: int64(n)})
		}
		if err == nil && p.Estimate.ErrorBar <= analytic.DefaultTolerance() {
			served++
		}
	}
	est := timeEach(rec, "analytic.estimate", len(pairs), func(i int) { m.Describe(pairs[i]) })
	l.Set("analytic.calibrate_ms", ratio(float64(calNs)/1e6, float64(cals)), "ms")
	l.Set("analytic.estimate_us", us(est), "us")
	return float64(served) / float64(len(pairs)), nil
}

// wireProbe encodes and decodes the run's batches in both wire
// protocols: a p5remote RunRequest and RunResponse, and the p5queue
// result Events a daemon streams for the same jobs. The figures are per
// batch.
func wireProbe(rec *bench.Recorder, l *bench.Result, batches [][]done) error {
	type wire struct {
		req    remote.RunRequest
		resp   remote.RunResponse
		events []service.Event
	}
	ws := make([]wire, len(batches))
	for i, b := range batches {
		w := &ws[i]
		w.req.Protocol, w.resp.Protocol = remote.ProtocolVersion, remote.ProtocolVersion
		for k, d := range b {
			key := engine.JobKey(d.job).String()
			w.req.Jobs = append(w.req.Jobs, remote.WireJob{Key: key, Job: d.job})
			wr := remote.WireResult{Key: key, Pair: d.pair}
			w.resp.Results = append(w.resp.Results, wr)
			w.events = append(w.events, service.Event{Type: service.EventResult, Index: k, Result: &wr})
		}
	}
	encoded := make([][][]byte, len(ws))
	var encErr error
	enc := timeEach(rec, "remote.encode", len(ws), func(i int) {
		out := make([][]byte, 0, 2+len(ws[i].events))
		for _, v := range []any{ws[i].req, ws[i].resp} {
			b, err := json.Marshal(v)
			encErr = firstErr(encErr, err)
			out = append(out, b)
		}
		for _, e := range ws[i].events {
			b, err := json.Marshal(e)
			encErr = firstErr(encErr, err)
			out = append(out, b)
		}
		encoded[i] = out
	})
	if encErr != nil {
		return fmt.Errorf("wire encode: %w", encErr)
	}
	var decErr error
	dec := timeEach(rec, "remote.decode", len(ws), func(i int) {
		var req remote.RunRequest
		var resp remote.RunResponse
		decErr = firstErr(decErr, json.Unmarshal(encoded[i][0], &req))
		decErr = firstErr(decErr, json.Unmarshal(encoded[i][1], &resp))
		for _, b := range encoded[i][2:] {
			var e service.Event
			decErr = firstErr(decErr, json.Unmarshal(b, &e))
		}
	})
	if decErr != nil {
		return fmt.Errorf("wire decode: %w", decErr)
	}
	l.Set("remote.encode_us", us(enc), "us")
	l.Set("remote.decode_us", us(dec), "us")
	return nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
