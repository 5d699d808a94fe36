package main

import (
	"fmt"
	"time"

	"power5prio"
	"power5prio/perfbench/bench"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/mem"
	"power5prio/internal/pipeline"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// sampleEvery: one per-cycle call in this many is timed, so timing does
// not swamp Chip.Step; every call is counted.
const sampleEvery = 64

// tracedChip is the fame.Machine the replay measures through: it
// forwards to a core.Chip, counting every Step and AdvanceToNextEvent
// call and timing a sample of them. It also offers fame.Skipper, so
// fame.Measure fast-forwards exactly as it does on a bare chip and the
// result stays bit-identical.
type tracedChip struct {
	ch *core.Chip

	steps, stepSampled, stepNs  int64
	advances, advSampled, advNs int64
	advanceHits                 int64
	skipped                     uint64
}

func (t *tracedChip) ExperimentCore() *pipeline.Core { return t.ch.ExperimentCore() }

func (t *tracedChip) Step() {
	t.steps++
	if t.steps%sampleEvery != 0 {
		t.ch.Step()
		return
	}
	t0 := time.Now()
	t.ch.Step()
	t.stepNs += int64(time.Since(t0))
	t.stepSampled++
}

func (t *tracedChip) AdvanceToNextEvent(bound uint64) uint64 {
	t.advances++
	var n uint64
	if t.advances%sampleEvery != 0 {
		n = t.ch.AdvanceToNextEvent(bound)
	} else {
		t0 := time.Now()
		n = t.ch.AdvanceToNextEvent(bound)
		t.advNs += int64(time.Since(t0))
		t.advSampled++
	}
	if n > 0 {
		t.advanceHits++
		t.skipped += n
	}
	return n
}

// simTotals accumulates the simulator-layer counters of replayed jobs.
type simTotals struct {
	jobs                                 int
	steps, stepSampled, stepNs           int64
	advances, advSampled, advNs, advHits int64
	skipped, cycles                      uint64
	issued, instrs                       uint64
	granted, stalled                     uint64
	accesses, l1Hits, dram               uint64
	builds                               int
	buildNs, placeNs, measureNs          int64
}

// jobOf translates a public spec into the engine job the System builds
// for it: supervisor privilege, full-length kernels, the default chip.
func jobOf(reg *workload.Registry, sp power5prio.Spec, opts fame.Options) (engine.Job, error) {
	pa, pb := sp.PA, sp.PB
	if pa == 0 {
		pa = prio.Medium
	}
	if pb == 0 {
		pb = prio.Medium
	}
	refA, err := reg.Resolve(sp.A)
	if err != nil {
		return engine.Job{}, err
	}
	if sp.B == "" {
		j := engine.Single(refA, prio.Supervisor, 1.0, core.DefaultConfig(), opts)
		j.PrioP = pa
		return j, nil
	}
	refB, err := reg.Resolve(sp.B)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Pair(refA, refB, pa, pb, prio.Supervisor, 1.0, core.DefaultConfig(), opts), nil
}

// replay measures one job the way engine.Execute does, but calls each
// layer from here so that every call is a span: workload.build,
// core.place (NewChip + PlacePair, including prewarm), fame.measure,
// and under it one aggregated core.step and core.advance span. The
// aggregated spans carry the call count and sampled time; their extent
// is the estimated total (count × sampled mean), laid end to end from
// the start of the measurement.
func replay(rec *bench.Recorder, reg *workload.Registry, j engine.Job, req int, tot *simTotals) (fame.PairResult, time.Duration, error) {
	root, endRoot := rec.Begin("job", 0, req)
	defer endRoot()

	build := func(ref workload.Ref) (*isa.Kernel, error) {
		t0 := time.Now()
		_, end := rec.Begin("workload.build", root, req)
		k, err := reg.Build(ref, j.IterScale)
		end()
		tot.buildNs += int64(time.Since(t0))
		tot.builds++
		return k, err
	}
	kp, err := build(j.Primary)
	if err != nil {
		return fame.PairResult{}, 0, fmt.Errorf("build %v: %w", j.Primary, err)
	}
	var ks *isa.Kernel
	if !j.Secondary.IsZero() {
		if ks, err = build(j.Secondary); err != nil {
			return fame.PairResult{}, 0, fmt.Errorf("build %v: %w", j.Secondary, err)
		}
	}

	t0 := time.Now()
	_, end := rec.Begin("core.place", root, req)
	ch := core.NewChip(j.Chip)
	ch.PlacePair(kp, ks, j.PrioP, j.PrioS, j.Privilege)
	end()
	tot.placeNs += int64(time.Since(t0))

	tc := &tracedChip{ch: ch}
	t0 = time.Now()
	mid, end := rec.Begin("fame.measure", root, req)
	start := rec.Now()
	res := fame.Measure(tc, j.Fame)
	end()
	measured := time.Since(t0)
	tot.measureNs += int64(measured)

	stepEst := estimate(tc.steps, tc.stepSampled, tc.stepNs)
	advEst := estimate(tc.advances, tc.advSampled, tc.advNs)
	rec.Add(bench.Span{Name: "core.step", Parent: mid, Req: req, Start: start, End: start + stepEst,
		Count: tc.steps, Sampled: tc.stepSampled, SampledNs: tc.stepNs})
	rec.Add(bench.Span{Name: "core.advance", Parent: mid, Req: req, Start: start + stepEst, End: start + stepEst + advEst,
		Count: tc.advances, Sampled: tc.advSampled, SampledNs: tc.advNs})

	tot.jobs++
	tot.steps += tc.steps
	tot.stepSampled += tc.stepSampled
	tot.stepNs += tc.stepNs
	tot.advances += tc.advances
	tot.advSampled += tc.advSampled
	tot.advNs += tc.advNs
	tot.advHits += tc.advanceHits
	tot.skipped += tc.skipped
	tot.cycles += res.Cycles

	c := ch.ExperimentCore()
	cs := c.CoreStats()
	for _, n := range cs.IssuedByUnit {
		tot.issued += n
	}
	for t := 0; t < 2; t++ {
		st := c.Stats(t)
		tot.instrs += st.Instructions
		tot.granted += st.DecodeGranted
		tot.stalled += st.DecodeStalled
		ms := ch.Hier.StatsFor(j.Chip.ExperimentCore, t)
		tot.accesses += ms.Accesses
		tot.l1Hits += ms.Hits[mem.HitL1]
		tot.dram += ms.Hits[mem.HitMem]
	}
	return res, measured, nil
}

// estimate scales a sampled time to all calls.
func estimate(calls, sampled, ns int64) int64 {
	if sampled == 0 {
		return 0
	}
	return calls * (ns / sampled)
}

// set records the simulator-layer metrics.
func (t simTotals) set(l *bench.Result) {
	l.Set("core.step_ns", ratio(float64(t.stepNs), float64(t.stepSampled)), "ns")
	l.Set("core.steps", float64(t.steps), "count")
	l.Set("pipeline.issued_per_step", ratio(float64(t.issued), float64(t.steps)), "ratio")
	l.Set("pipeline.ipc", ratio(float64(t.instrs), float64(t.cycles)), "ipc")
	l.Set("pipeline.decode_stalled_frac", ratio(float64(t.stalled), float64(t.granted)), "ratio")
	l.Set("core.advance_ns", ratio(float64(t.advNs), float64(t.advSampled)), "ns")
	l.Set("core.advance_hit_frac", ratio(float64(t.advHits), float64(t.advances)), "ratio")
	l.Set("core.skipped_frac", ratio(float64(t.skipped), float64(t.cycles)), "ratio")
	l.Set("core.place_us", ratio(float64(t.placeNs)/1e3, float64(t.jobs)), "us")
	l.Set("workload.build_us", ratio(float64(t.buildNs)/1e3, float64(t.builds)), "us")
	l.Set("fame.measure_ms", ratio(float64(t.measureNs)/1e6, float64(t.jobs)), "ms")
	l.Set("fame.cycles_per_job", ratio(float64(t.cycles), float64(t.jobs)), "count")
	l.Set("mem.accesses_per_step", ratio(float64(t.accesses), float64(t.steps)), "ratio")
	l.Set("mem.l1_miss_frac", 1-ratio(float64(t.l1Hits), float64(t.accesses)), "ratio")
	l.Set("mem.dram_per_kaccess", 1000*ratio(float64(t.dram), float64(t.accesses)), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
