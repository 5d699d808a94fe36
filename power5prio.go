// Package power5prio is a simulation study of the IBM POWER5
// software-controlled thread priority mechanism, reproducing Boneti et al.,
// "Software-Controlled Priority Characterization of POWER5 Processor"
// (ISCA 2008) on a cycle-approximate simulator.
//
// The package exposes:
//
//   - the priority mechanism itself (levels, privilege rules, or-nop
//     encodings, the R = 2^(|diff|+1) decode-slot formula),
//   - a POWER5-like chip simulator (two SMT cores, shared GCT, typed
//     dispatch groups, issue queues, caches/TLB/DRAM, hardware resource
//     balancing),
//   - the paper's workloads (fifteen micro-benchmarks, synthetic SPEC
//     stand-ins, the FFT/LU software pipeline) and the FAME measurement
//     methodology,
//   - every table and figure of the paper's evaluation as a regenerable
//     experiment.
//
// Measurements go through one unified workload registry: a Spec names any
// two workloads — micro-benchmark, synthetic SPEC stand-in or a custom
// kernel registered with RegisterWorkload, mixed freely — and every
// measurement path (Measure, MeasureBatch, MeasureMatrix, TuneTotalIPC)
// submits engine jobs that fan out across a worker pool and memoize in a
// content-keyed result cache. Batches take a context: cancelling it
// returns the completed prefix of results, and the finished work stays
// cached for a retry. Execution is pluggable: WithService submits
// batches to a shared p5d measurement daemon that queues, fairly
// schedules and deduplicates jobs across many concurrent clients and
// runs them on the p5worker fleet registered with it — with results
// byte-identical to local runs.
//
// Quick start:
//
//	sys := power5prio.New(power5prio.DefaultConfig())
//	res, err := sys.Measure(ctx, power5prio.Spec{
//	    A: "cpu_int", B: "mcf",
//	    PA: power5prio.High, PB: power5prio.Medium,
//	})
//
// See examples/ for complete programs.
package power5prio

import (
	"context"
	"errors"
	"fmt"

	"power5prio/internal/analytic"
	"power5prio/internal/apps"
	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/experiments"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/service"
	"power5prio/internal/spec"
	"power5prio/internal/tuner"
	"power5prio/internal/workload"
)

// Level is a software-controlled thread priority (0-7), re-exported from
// the priority engine.
type Level = prio.Level

// The eight architected priority levels (Table 1 of the paper).
const (
	ThreadOff  = prio.ThreadOff
	VeryLow    = prio.VeryLow
	Low        = prio.Low
	MediumLow  = prio.MediumLow
	Medium     = prio.Medium
	MediumHigh = prio.MediumHigh
	High       = prio.High
	VeryHigh   = prio.VeryHigh
)

// Privilege is the execution privilege attempting a priority change.
type Privilege = prio.Privilege

// Privilege levels.
const (
	User       = prio.User
	Supervisor = prio.Supervisor
	Hypervisor = prio.Hypervisor
)

// Kernel is a workload: a loop body of instruction templates with memory
// streams, executed repeatedly. Build custom kernels with NewKernelBuilder.
type Kernel = isa.Kernel

// KernelBuilder assembles custom workloads from virtual-register loop
// bodies; see the isa package documentation for the instruction set.
type KernelBuilder = isa.Builder

// NewKernelBuilder returns a builder for a custom workload kernel.
func NewKernelBuilder(name string) *KernelBuilder { return isa.NewBuilder(name) }

// Op is an instruction class for custom kernels.
type Op = isa.Op

// Instruction classes usable with KernelBuilder.
const (
	OpNop     = isa.OpNop
	OpIntAdd  = isa.OpIntAdd
	OpIntMul  = isa.OpIntMul
	OpIntDiv  = isa.OpIntDiv
	OpFPAdd   = isa.OpFPAdd
	OpFPMul   = isa.OpFPMul
	OpLoad    = isa.OpLoad
	OpStore   = isa.OpStore
	OpBranch  = isa.OpBranch
	OpPrioSet = isa.OpPrioSet
)

// Branch kinds for KernelBuilder.Branch.
const (
	BranchLoop    = isa.BranchLoop
	BranchPattern = isa.BranchPattern
)

// StreamSpec describes a custom kernel's memory stream (footprint,
// addressing kind, stride).
type StreamSpec = isa.StreamSpec

// Address-stream kinds.
const (
	StreamChase  = isa.StreamChase
	StreamStride = isa.StreamStride
	StreamRandom = isa.StreamRandom
)

// NoReg marks an unused register operand in builder calls.
const NoReg = isa.Reg(-1)

// Config configures the simulated chip. The zero value is not useful; use
// DefaultConfig (published POWER5 parameters) and adjust fields.
type Config = core.Config

// DefaultConfig returns the POWER5-like default chip configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// MeasureOptions controls FAME measurements.
type MeasureOptions = fame.Options

// DefaultMeasureOptions mirrors the paper's methodology: MAIV 1%, at least
// ten repetitions per thread.
func DefaultMeasureOptions() MeasureOptions { return fame.DefaultOptions() }

// ThreadResult is a per-thread measurement (average repetition time in
// cycles and average accumulated IPC, computed the FAME way).
type ThreadResult = fame.ThreadResult

// PairResult is a co-scheduled measurement of two threads.
type PairResult = fame.PairResult

// Share returns the long-run fraction of decode slots the primary thread
// receives at priority difference diff, per the paper's equation (1).
func Share(diff int) float64 { return prio.Share(diff) }

// R returns the decode window size 2^(|diff|+1) of equation (1).
func R(diff int) int { return prio.R(diff) }

// Permitted reports whether the privilege may set the level (Table 1).
func Permitted(l Level, p Privilege) bool { return prio.Permitted(l, p) }

// OrNopRegister returns the register X of the `or X,X,X` encoding that
// requests the level, and whether one exists.
func OrNopRegister(l Level) (int, bool) { return prio.OrNopRegister(l) }

// DecodeOrNop maps an or-nop register number back to the level it
// requests.
func DecodeOrNop(reg int) (Level, bool) { return prio.DecodeOrNop(reg) }

// Microbenchmarks lists the paper's fifteen micro-benchmarks (Table 2).
func Microbenchmarks() []string { return microbench.Names() }

// SPECWorkloads lists the synthetic SPEC stand-ins used by the case
// studies (h264ref, mcf, applu, equake).
func SPECWorkloads() []string { return spec.Names() }

// Microbenchmark builds one of the paper's micro-benchmarks by name.
func Microbenchmark(name string) (*Kernel, error) { return microbench.Build(name) }

// SPECWorkload builds one of the synthetic SPEC workloads by name.
func SPECWorkload(name string) (*Kernel, error) { return spec.Build(name) }

// Workload builds any built-in workload by name: micro-benchmarks first,
// then the synthetic SPEC stand-ins — the same resolution order every
// Spec uses.
func Workload(name string) (*Kernel, error) {
	r := workload.NewRegistry()
	ref, err := r.Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("power5prio: %w", err)
	}
	return r.Build(ref, 1.0)
}

// Progress receives per-measurement completion notifications during
// batch runs configured with WithProgress: done counts measurements
// finished so far (cache hits included), total is the batch size, and
// spec/res identify the finished measurement. Calls are serialized;
// measurements a cancelled batch never ran are not reported. Note that
// on cancellation a reported measurement may land after an earlier spec
// that was skipped, in which case it is not part of the completed
// prefix MeasureBatch returns (it is still cached for a retry).
type Progress func(done, total int, spec Spec, res PairResult)

// Option configures a System at construction.
type Option func(*System)

// WithWorkers bounds the concurrency of batch measurements (n <= 0 = all
// CPU cores, the default).
func WithWorkers(n int) Option { return func(s *System) { s.workers = n } }

// WithMeasureOptions replaces the FAME options used by measurements
// (default: DefaultMeasureOptions, the paper's methodology).
func WithMeasureOptions(o MeasureOptions) Option { return func(s *System) { s.opts = o } }

// WithPrivilege sets the software privilege for in-stream priority
// changes (default: Supervisor, the paper's patched kernel).
func WithPrivilege(p Privilege) Option { return func(s *System) { s.priv = p } }

// WithProgress installs a per-measurement progress callback for batch
// runs — the hook a tuner or a long sweep uses to report liveness and to
// decide when to cancel the batch's context.
func WithProgress(fn Progress) Option { return func(s *System) { s.progress = fn } }

// Cache is a disk-backed, versioned result store: measurements keyed by
// a stable content hash of the job that produced them, shared between
// Systems and surviving process restarts. Entries carry per-entry
// checksums; anything corrupt is detected, recomputed and rewritten.
// Open one with OpenCache and attach it with WithCache.
type Cache = cachestore.Store

// CacheInfo summarizes a Cache's contents (entry count and bytes).
type CacheInfo = cachestore.Info

// OpenCache creates (if needed) and opens the persistent result cache
// rooted at dir. Multiple Systems — and multiple processes — may share
// one cache directory.
func OpenCache(dir string) (*Cache, error) {
	c, err := cachestore.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("power5prio: %w", err)
	}
	return c, nil
}

// WithCache attaches an opened persistent result cache as the second
// cache tier behind the System's in-memory one: measurements missing in
// memory are served from disk when an earlier run — in this process or a
// previous one — already simulated them, and newly simulated results are
// written back.
func WithCache(c *Cache) Option { return func(s *System) { s.store = c } }

// WithCacheDir is WithCache over OpenCache(dir): the idiomatic way to
// make a System's measurements persistent when no error handling or
// cache administration is needed at open time. If the directory cannot
// be opened, the System is still constructed but every measurement
// returns the open error (a cache the caller asked for must not be
// silently dropped).
func WithCacheDir(dir string) Option { return func(s *System) { s.cacheDir = dir } }

// EstimateMode selects how a measurement may be answered by tier 0 —
// the analytical estimator — instead of simulation: off (the default,
// exact answers only), tolerance-τ (estimates accepted while the
// model's error bar stays within τ, escalating to simulation
// otherwise), or always. See the README's "Answer tiers" section for
// the contract: estimated results are flagged, carry an error bar, and
// never enter any cache tier.
type EstimateMode = engine.EstimateMode

// EstimateOff requests exact answers only (the default).
func EstimateOff() EstimateMode { return engine.EstimateOff() }

// EstimateTolerance accepts tier-0 answers whose error bar is at most
// tol (absolute per-thread IPC); anything less certain simulates.
// tol <= 0 behaves exactly like EstimateOff.
func EstimateTolerance(tol float64) EstimateMode { return engine.EstimateTolerance(tol) }

// EstimateAlways accepts every tier-0 answer the model can produce;
// only jobs outside the model's domain simulate.
func EstimateAlways() EstimateMode { return engine.EstimateAlways() }

// DefaultEstimateTolerance returns the loosest residual bound the
// analytical model commits to — the tolerance at which every in-domain
// pair measurement is served by tier 0.
func DefaultEstimateTolerance() float64 { return analytic.DefaultTolerance() }

// WithEstimate sets the System's default estimate mode: whether
// batches accept tier-0 answers by default. Individual specs override
// the default with Spec.Estimate. A local System carries the
// analytical estimator itself (calibrations run lazily, once per
// workload, and persist in the System's cache when it has one); a
// System whose backend is a p5d daemon (WithService, or WithBackend
// with a daemon client) has none, and each spec's mode travels to the
// daemon, whose tier 0 and persistent calibration answer it.
func WithEstimate(m EstimateMode) Option { return func(s *System) { s.estMode = m } }

// Backend executes measurement batches on behalf of a System: the
// in-process worker pool by default, a p5d daemon with WithService, or
// any custom implementation of Name and RunProgress (which may ignore
// its done callback). Every backend returns bit-identical results for
// the same measurement, so swapping backends never changes what a
// System reports — only where and how fast the simulations run.
type Backend = engine.Backend

// WithBackend routes the System's simulations through the given
// execution backend. The System's cache tiers (in-memory, and
// WithCache/WithCacheDir when configured) stay local, in front of the
// backend: only unique uncached measurements reach it.
func WithBackend(b Backend) Option { return func(s *System) { s.backend = b } }

// WithService routes the System's simulations through a p5d measurement
// daemon at addr (host:port, or a full http:// URL) speaking the
// p5queue/v5 protocol. The daemon is shared: it queues submissions from
// many concurrent clients with per-client fair scheduling, deduplicates
// identical in-flight jobs across clients, answers repeats from its own
// cache tiers, and runs the rest on its worker fleet; jobs a failed
// worker dropped come back skipped and the System's client resubmits
// them. The System's local cache tiers stay in front,
// so only locally-unknown measurements travel. Results are
// byte-identical to local execution. Tier 0 runs in the daemon too:
// each spec's estimate mode travels with it, so a spec that accepts
// an estimate is answered from the daemon's calibrated model, and a
// spec that demands an exact answer gets one whatever the daemon's
// -estimate default. Custom kernels registered with
// RegisterWorkload cannot travel over the wire and fail with a clear
// error; built-in workloads run anywhere.
func WithService(addr string) Option {
	return func(s *System) { s.backend = service.NewClient(addr) }
}

// System is a configured simulator factory: each measurement runs on a
// fresh chip so results are independent and deterministic. All
// measurements resolve workload names in the System's registry and go
// through an internal worker-pool engine that runs independent
// simulations concurrently and caches results by content, so repeated
// jobs are simulated once; results are bit-identical for any worker
// count.
type System struct {
	cfg      Config
	opts     MeasureOptions
	priv     Privilege
	workers  int
	progress Progress
	store    *Cache
	cacheDir string
	cacheErr error
	backend  Backend
	estMode  EstimateMode
	eng      *engine.Engine
}

// New returns a System with the given chip configuration, configured by
// functional options. The defaults follow the paper's methodology:
// FAME measurement options, supervisor privilege for in-stream priority
// changes (the paper's patched kernel), and all CPU cores for batch
// measurements.
func New(cfg Config, options ...Option) *System {
	s := &System{cfg: cfg, opts: DefaultMeasureOptions(), priv: Supervisor}
	for _, o := range options {
		o(s)
	}
	if s.store == nil && s.cacheDir != "" {
		s.store, s.cacheErr = cachestore.Open(s.cacheDir)
	}
	engOpts := []engine.Option{engine.WithStore(s.store)}
	if s.backend != nil {
		engOpts = append(engOpts, engine.WithBackend(s.backend))
	}
	s.eng = engine.NewWith(s.workers, nil, engOpts...)
	// Tier 0 runs where the calibration lives: in the backend when it
	// has its own (a p5d daemon), here otherwise. The mode (off by
	// default) decides whether any batch uses it.
	if _, ok := s.eng.Backend().(engine.EstimateBackend); !ok {
		s.eng.SetEstimator(analytic.New(s.eng))
	}
	s.eng.SetEstimateMode(s.estMode)
	return s
}

// Cache returns the System's persistent result cache (nil when the
// System caches in memory only).
func (s *System) Cache() *Cache { return s.store }

// cacheReady surfaces a WithCacheDir open failure: measurements on a
// System whose requested cache could not be opened fail rather than
// silently running uncached.
func (s *System) cacheReady() error {
	if s.cacheErr != nil {
		return fmt.Errorf("power5prio: cache dir %q: %w", s.cacheDir, s.cacheErr)
	}
	return nil
}

// RegisterWorkload adds a custom kernel to the System's workload
// registry under the kernel's own name, making it usable in any Spec —
// alone, or paired with any other workload. The kernel is fingerprinted
// by content so its measurements cache like the built-ins. Registration
// fails if the name shadows a built-in workload or a different kernel is
// already registered under it; re-registering the same kernel is a no-op.
func (s *System) RegisterWorkload(k *Kernel) error {
	_, err := s.eng.Registry().Register(k)
	if err != nil {
		return fmt.Errorf("power5prio: %w", err)
	}
	return nil
}

// Workloads lists every workload name a Spec can use on this System:
// the built-in families plus registered custom kernels, sorted.
func (s *System) Workloads() []string { return s.eng.Registry().Names() }

// BatchStats reports the batch engine's lifetime counters: jobs
// submitted, jobs actually simulated, cache hits, and jobs skipped by
// cancelled batches — plus, on a System with a persistent cache, the
// disk tier's hit/miss/write counters.
type BatchStats = engine.Stats

// BatchStats returns a snapshot of the engine counters.
func (s *System) BatchStats() BatchStats { return s.eng.Stats() }

// Spec names one measurement: workload A co-scheduled with workload B at
// priorities (PA, PB), or A alone in single-thread mode when B is empty.
// Names resolve in the System's unified registry — micro-benchmarks,
// synthetic SPEC stand-ins and registered custom kernels, mixed freely.
//
// A zero priority means "the hardware default, Medium (4)" — explicitly,
// so the zero Spec value measures the conventional (4,4) co-run. Levels
// outside [1,7] are rejected; ThreadOff (0) cannot be requested for a
// running thread (leave B empty to keep the sibling thread off).
type Spec struct {
	A, B   string
	PA, PB Level
	// Estimate overrides the System's default estimate mode for this
	// spec only (EstimateDefault inherits WithEstimate). The choice is
	// not part of the measurement's identity: it selects which answer
	// tier may serve the spec, never what the exact answer would be.
	Estimate EstimateChoice
	// EstimateTol is the error-bar tolerance for EstimateWithin
	// (absolute per-thread IPC); it must be positive with
	// EstimateWithin and zero otherwise.
	EstimateTol float64
}

// EstimateChoice is a Spec's per-measurement estimate selection.
type EstimateChoice int

const (
	// EstimateDefault inherits the System's WithEstimate mode.
	EstimateDefault EstimateChoice = iota
	// EstimateNever demands an exact answer for this spec.
	EstimateNever
	// EstimateWithin accepts a tier-0 answer when its error bar is at
	// most the spec's EstimateTol.
	EstimateWithin
	// EstimateForce accepts any tier-0 answer the model can produce.
	EstimateForce
)

// String renders the spec for diagnostics, showing zero levels as the
// Medium default they mean.
func (sp Spec) String() string {
	if sp.B == "" {
		return fmt.Sprintf("%s(ST)", sp.A)
	}
	pa, pb := sp.PA, sp.PB
	if pa == 0 {
		pa = Medium
	}
	if pb == 0 {
		pb = Medium
	}
	return fmt.Sprintf("%s+%s(%d,%d)", sp.A, sp.B, pa, pb)
}

// normalize validates a spec and applies the explicit defaults.
func (sp Spec) normalize() (Spec, error) {
	if sp.A == "" {
		return Spec{}, errors.New("power5prio: Spec needs a workload name in A")
	}
	level := func(field string, l Level) (Level, error) {
		switch {
		case l == 0:
			return Medium, nil // the explicit default
		case l >= 1 && l <= 7:
			return l, nil
		default:
			return 0, fmt.Errorf("power5prio: spec %s: invalid priority %s=%d (running threads take levels 1-7; 0 selects the Medium default)",
				sp, field, l)
		}
	}
	switch sp.Estimate {
	case EstimateDefault, EstimateNever, EstimateForce:
		if sp.EstimateTol != 0 {
			return Spec{}, fmt.Errorf("power5prio: spec %s: EstimateTol=%v is only meaningful with EstimateWithin", sp, sp.EstimateTol)
		}
	case EstimateWithin:
		if sp.EstimateTol <= 0 {
			return Spec{}, fmt.Errorf("power5prio: spec %s: EstimateWithin needs a positive EstimateTol, got %v", sp, sp.EstimateTol)
		}
	default:
		return Spec{}, fmt.Errorf("power5prio: spec %s: invalid EstimateChoice %d", sp, sp.Estimate)
	}
	var err error
	if sp.PA, err = level("PA", sp.PA); err != nil {
		return Spec{}, err
	}
	if sp.B == "" {
		if sp.PB != 0 {
			return Spec{}, fmt.Errorf("power5prio: single-workload spec %q sets PB=%d but has no second workload", sp.A, sp.PB)
		}
		return sp, nil
	}
	if sp.PB, err = level("PB", sp.PB); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// job translates a normalized spec into an engine job.
func (s *System) job(sp Spec) (engine.Job, error) {
	sp, err := sp.normalize()
	if err != nil {
		return engine.Job{}, err
	}
	reg := s.eng.Registry()
	refA, err := reg.Resolve(sp.A)
	if err != nil {
		return engine.Job{}, fmt.Errorf("power5prio: %w", err)
	}
	if sp.B == "" {
		j := engine.Single(refA, s.priv, 1.0, s.cfg, s.opts)
		j.PrioP = sp.PA
		return j, nil
	}
	refB, err := reg.Resolve(sp.B)
	if err != nil {
		return engine.Job{}, fmt.Errorf("power5prio: %w", err)
	}
	return engine.Pair(refA, refB, sp.PA, sp.PB, s.priv, 1.0, s.cfg, s.opts), nil
}

// specOf reconstructs the user-facing spec of an engine job for progress
// reporting.
func specOf(j engine.Job) Spec {
	sp := Spec{A: j.Primary.Name, PA: j.PrioP}
	if !j.Secondary.IsZero() {
		sp.B = j.Secondary.Name
		sp.PB = j.PrioS
	}
	return sp
}

// progressFunc adapts the System's Progress hook to the engine callback.
func (s *System) progressFunc(total int) func(int, engine.Result) {
	if s.progress == nil {
		return nil
	}
	done := 0 // engine callbacks are serialized
	return func(_ int, r engine.Result) {
		if r.Err != nil {
			return
		}
		done++
		s.progress(done, total, specOf(r.Job), r.Pair)
	}
}

// isCancel reports whether an error came from a cancelled batch context.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Measure runs one spec (nil ctx = background). Identical specs measured
// earlier on this System are served from the result cache.
func (s *System) Measure(ctx context.Context, sp Spec) (PairResult, error) {
	res, err := s.MeasureBatch(ctx, []Spec{sp})
	if err != nil {
		return PairResult{}, err
	}
	return res[0], nil
}

// MeasureSingleSpec measures spec.A alone and returns the active
// thread's result (a Measure convenience for single-thread specs).
func (s *System) MeasureSingleSpec(ctx context.Context, sp Spec) (ThreadResult, error) {
	if sp.B != "" {
		return ThreadResult{}, fmt.Errorf("power5prio: MeasureSingleSpec needs a single-workload spec, got %s", sp)
	}
	res, err := s.Measure(ctx, sp)
	if err != nil {
		return ThreadResult{}, err
	}
	return res.Thread[0], nil
}

// MeasureBatch runs a batch of measurements concurrently on the worker
// pool and returns results in submission order. Identical specs — within
// the batch or across earlier batches on this System — are simulated
// once and served from the cache; results are bit-identical to running
// each spec alone, regardless of the worker count.
//
// Cancelling ctx stops the batch: in-flight measurements finish (and are
// cached), and MeasureBatch returns the completed prefix of results
// together with an error wrapping the context's. A WithProgress callback
// observes every completed measurement as it lands.
func (s *System) MeasureBatch(ctx context.Context, specs []Spec) ([]PairResult, error) {
	if err := s.cacheReady(); err != nil {
		return nil, err
	}
	jobs, modes, err := s.jobsAndModes(specs)
	if err != nil {
		return nil, err
	}
	results := s.eng.RunEstimate(ctx, jobs, modes, s.progressFunc(len(jobs)))
	out := make([]PairResult, 0, len(specs))
	for i, r := range results {
		if r.Err != nil {
			if isCancel(r.Err) {
				return out, fmt.Errorf("power5prio: batch cancelled after %d/%d measurements: %w", len(out), len(specs), r.Err)
			}
			return nil, fmt.Errorf("power5prio: batch job %d (%s): %w", i, specs[i], r.Err)
		}
		out = append(out, r.Pair)
	}
	return out, nil
}

// jobsAndModes translates specs into engine jobs plus their per-job
// estimate modes. The modes slice is nil when every spec inherits the
// System default — the exact code path a System without estimation has
// always taken.
func (s *System) jobsAndModes(specs []Spec) ([]engine.Job, []EstimateMode, error) {
	jobs := make([]engine.Job, len(specs))
	var modes []EstimateMode
	for i, sp := range specs {
		j, err := s.job(sp)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = j
		if sp.Estimate == EstimateDefault {
			continue
		}
		if modes == nil {
			modes = make([]EstimateMode, len(specs))
			for k := range modes {
				modes[k] = s.estMode
			}
		}
		switch sp.Estimate {
		case EstimateNever:
			modes[i] = EstimateOff()
		case EstimateWithin:
			modes[i] = EstimateTolerance(sp.EstimateTol)
		case EstimateForce:
			modes[i] = EstimateAlways()
		}
	}
	return jobs, modes, nil
}

// MeasureResult is a measurement with its full provenance: the Pair
// value plus how it was answered — CacheHit, Coalesced, Skipped, or
// Estimated with its ErrorBar. MeasureResults returns these;
// MeasureBatch returns just the Pair values.
type MeasureResult = engine.Result

// MeasureResults runs a batch like MeasureBatch but returns the full
// per-measurement provenance, which is how a caller distinguishes an
// exact answer from a tier-0 estimate and reads its error bar. One
// result is returned per spec, in order; a cancelled batch marks the
// unfinished measurements Skipped with the context's error and also
// returns that error.
func (s *System) MeasureResults(ctx context.Context, specs []Spec) ([]MeasureResult, error) {
	if err := s.cacheReady(); err != nil {
		return nil, err
	}
	jobs, modes, err := s.jobsAndModes(specs)
	if err != nil {
		return nil, err
	}
	results := s.eng.RunEstimate(ctx, jobs, modes, s.progressFunc(len(jobs)))
	for i, r := range results {
		if r.Err != nil {
			if isCancel(r.Err) {
				return results, fmt.Errorf("power5prio: batch cancelled: %w", r.Err)
			}
			return nil, fmt.Errorf("power5prio: batch job %d (%s): %w", i, specs[i], r.Err)
		}
	}
	return results, nil
}

// MatrixResult is a full priority-difference sweep: co-run measurements
// for every (primary, secondary) pair at every difference, plus
// single-thread IPCs, with the relative-performance accessors the
// paper's figures use (At, RelPrimary, RelTotal).
type MatrixResult = experiments.MatrixResult

// MeasureMatrix sweeps every (primary, secondary) workload pair at every
// priority difference in diffs (each in [-5,+5], mapped to the paper's
// level pairs), plus each primary alone in ST mode. Names resolve in the
// System's registry, so the axes may mix micro-benchmarks, SPEC
// stand-ins and registered custom kernels. The whole matrix is submitted
// to the worker pool as one batch.
//
// Cancelling ctx returns the partial matrix (Partial set; measured cells
// intact, the rest absent) together with an error wrapping the
// context's — and the completed cells stay cached, so re-running the
// sweep resumes rather than restarts. A job that fails (a daemon giving
// up on it, say) returns the partial matrix the same way, with a
// "matrix incomplete" error naming the job.
func (s *System) MeasureMatrix(ctx context.Context, primaries, secondaries []string, diffs []int) (*MatrixResult, error) {
	if err := s.cacheReady(); err != nil {
		return nil, err
	}
	reg := s.eng.Registry()
	for _, names := range [][]string{primaries, secondaries} {
		for _, n := range names {
			if _, err := reg.Resolve(n); err != nil {
				return nil, fmt.Errorf("power5prio: %w", err)
			}
		}
	}
	for _, d := range diffs {
		if d < -5 || d > 5 {
			return nil, fmt.Errorf("power5prio: priority difference %d out of range [-5,5]", d)
		}
	}
	h := s.harness()
	total := len(primaries) * (1 + len(secondaries)*len(diffs))
	if fn := s.progressFunc(total); fn != nil {
		h.Progress = func(r engine.Result) { fn(0, r) }
	}
	m, err := experiments.RunMatrix(ctx, h, primaries, secondaries, diffs)
	if err == nil {
		return m, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return m, fmt.Errorf("power5prio: matrix cancelled: %w", err)
	}
	return m, fmt.Errorf("power5prio: matrix incomplete: %w", err)
}

// harness builds the experiments harness sharing this System's engine.
func (s *System) harness() experiments.Harness {
	return experiments.Harness{
		Chip:      s.cfg,
		Fame:      s.opts,
		IterScale: 1.0,
		Privilege: s.priv,
		Engine:    s.eng,
	}
}

// MeasurePair co-schedules two kernels on one SMT core at the given
// priorities and measures both threads. This is the direct, uncached
// reference path: the engine's batch results are defined to be
// bit-identical to it. Prefer RegisterWorkload + Measure, which caches.
func (s *System) MeasurePair(a, b *Kernel, pa, pb Level) (PairResult, error) {
	if a == nil || b == nil {
		return PairResult{}, fmt.Errorf("power5prio: MeasurePair needs two kernels")
	}
	if err := a.Validate(); err != nil {
		return PairResult{}, err
	}
	if err := b.Validate(); err != nil {
		return PairResult{}, err
	}
	ch := core.NewChip(s.cfg)
	ch.PlacePair(a, b, pa, pb, s.priv)
	return fame.Measure(ch, s.opts), nil
}

// MeasureSingle runs one kernel alone on the core (single-thread mode),
// uncached; see MeasurePair.
func (s *System) MeasureSingle(k *Kernel) (ThreadResult, error) {
	if k == nil {
		return ThreadResult{}, fmt.Errorf("power5prio: MeasureSingle needs a kernel")
	}
	if err := k.Validate(); err != nil {
		return ThreadResult{}, err
	}
	ch := core.NewChip(s.cfg)
	ch.PlacePair(k, nil, Medium, Medium, s.priv)
	return fame.Measure(ch, s.opts).Thread[0], nil
}

// PipelineResult is the outcome of an FFT/LU software-pipeline run.
type PipelineResult = apps.Result

// RunPipeline simulates the paper's FFT/LU execution-time case study at
// the given stage priorities.
func (s *System) RunPipeline(prioFFT, prioLU Level) (PipelineResult, error) {
	cfg := apps.DefaultConfig()
	cfg.Chip = s.cfg
	return apps.Run(cfg, prioFFT, prioLU)
}

// TuneResult reports an automatic priority search.
type TuneResult = tuner.Result

// TuneTotalIPC hill-climbs the priority difference of a workload pair to
// maximize total IPC (extension beyond the paper). Differences map to
// level pairs the way the paper's sweeps do ((5,4), (6,4), (6,3), ...).
// The names may come from any registered family. Every evaluation goes
// through the batch engine: a step's candidate neighbours simulate
// concurrently, and settings revisited by this or any earlier search on
// the System are cache hits. Cancelling ctx aborts the search.
func (s *System) TuneTotalIPC(ctx context.Context, nameA, nameB string) (TuneResult, error) {
	eval := func(diffs []int) ([]float64, error) {
		specs := make([]Spec, len(diffs))
		for i, d := range diffs {
			pa, pb := experiments.DiffPair(d)
			specs[i] = Spec{A: nameA, B: nameB, PA: pa, PB: pb}
		}
		res, err := s.MeasureBatch(ctx, specs)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(res))
		for i, r := range res {
			out[i] = r.TotalIPC
		}
		return out, nil
	}
	return tuner.HillClimb(eval, 0, -5, 5)
}
