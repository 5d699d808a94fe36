// Command p5d is the long-running measurement daemon: many concurrent
// clients (p5exp/p5sim -submit, power5prio.WithService, or raw p5queue/v5
// HTTP) stream job submissions to one shared engine, with admission
// control, weighted round-robin fairness across client IDs, and
// cross-client deduplication — identical jobs from different clients
// simulate once, and with -cache-dir repeat questions are answered
// from disk without simulating at all.
//
// Usage:
//
//	p5d                                         # serve on 127.0.0.1:7551, local pool
//	p5d -cache-dir /var/cache/p5 -workers 8     # persistent cache, bounded pool
//	p5d -fleet -cache-dir /mnt/shared/p5cache   # start empty; workers register
//
// Execution modes: by default jobs simulate on an in-process pool.
// With -fleet, jobs fan out across a p5worker fleet that workers join
// at runtime via POST /v1/register — p5worker -register does this and
// heartbeats it — so the fleet grows without restarting the daemon.
// A worker whose run fails is left out of later batches until its
// next heartbeat or a successful run, so the daemon keeps serving
// while individual workers die and rejoin.
//
// The daemon dispatches each job once. Jobs a failed worker dropped,
// jobs cut off by -job-timeout, and jobs dispatched while the fleet is
// still empty go back to their client as skipped results; the client
// is the one retry owner and resubmits them (service.Client does).
//
// Every daemon carries the tier-0 analytical estimator, and it is the
// tier 0 of every client that talks to it: clients run no estimator of
// their own, and each job travels in a submission whose estimate spec
// is that job's own mode (power5prio.Spec.Estimate, p5exp/p5sim
// -estimate). A job is answered from the calibrated model when its
// error bar fits its spec, without simulating; an empty spec demands
// exact answers. -estimate sets the default policy only for
// submissions that carry no spec (off keeps the daemon exact).
// Calibrations persist in -cache-dir, so they survive restarts and are
// shared by every client. Estimated results are flagged on the wire
// with their error bar and never enter any cache tier.
//
// GET /v1/stats reports queue depth, tenant count, cache-tier and
// estimator counters, a per-client answer-tier breakdown, and which
// fleet workers are down. SIGINT/SIGTERM drain gracefully: admission
// stops (503 + Retry-After), in-flight dispatches finish, and every
// open stream ends with done — queued jobs that never ran are handed
// back as skipped results so clients resubmit them to the daemon's
// successor.
//
// -chaos loads a deterministic fault-injection plan (see
// internal/chaos) and applies it to this daemon's execution backend and
// cache store — for resilience testing only.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"power5prio/internal/analytic"
	"power5prio/internal/chaos"
	"power5prio/internal/cmdutil"
	"power5prio/internal/engine"
	"power5prio/internal/remote"
	"power5prio/internal/service"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7551", "address to serve the p5queue protocol on (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 0, "local simulation pool size without -fleet (0 = all CPU cores)")
		fleetMode  = flag.Bool("fleet", false, "start with an empty worker fleet and rely on runtime registration (POST /v1/register)")
		maxQueue   = flag.Int("max-queue", 1024, "admission bound: queued jobs beyond this are rejected with 429")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job execution deadline within a dispatch (0 = none; deadlined jobs go back to their client skipped, for it to resubmit)")
		chaosPlan  = flag.String("chaos", "", "fault-injection plan JSON (see internal/chaos) applied to the backend and cache store")
		quiet      = flag.Bool("quiet", false, "suppress the per-event log lines")
		est        = flag.String("estimate", "off", cmdutil.EstimateFlagHelp+" Sets the default for submissions without their own estimate spec.")
		common     = cmdutil.AddCommonFlags("p5d", flag.CommandLine)
	)
	flag.Parse()
	estMode := cmdutil.ParseEstimate("p5d", *est)
	store := common.Init()
	stopProfiles := common.StartProfiles()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "p5d: "+format+"\n", args...)
	}

	var inj *chaos.Injector
	if *chaosPlan != "" {
		plan, err := chaos.Load(*chaosPlan)
		if err != nil {
			logf("%v", err)
			stopProfiles()
			os.Exit(1)
		}
		inj = chaos.NewInjector(plan)
		logf("CHAOS: injecting faults from %s (seed %d, %d rules)", *chaosPlan, plan.Seed, len(plan.Rules))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Execution backend: a worker fleet with -fleet (grown by
	// registration), otherwise the in-process pool. The
	// daemon's cache tiers sit in front either way.
	var fleet *remote.ShardedBackend
	engOpts := []engine.Option{engine.WithStore(store)}
	if *fleetMode {
		fleet = remote.NewDynamic()
	}
	var backend engine.Backend
	if fleet != nil {
		backend = fleet
	} else if inj != nil {
		// Chaos on a local-pool daemon needs the backend constructed
		// explicitly so the decorator can wrap it.
		backend = engine.NewLocalBackend(*workers, nil)
	}
	if inj != nil {
		backend = chaos.WrapBackend(backend, inj)
		if store != nil {
			store.SetPutHook(chaos.PutHook(inj))
		}
	}
	if backend != nil {
		engOpts = append(engOpts, engine.WithBackend(backend))
	}
	eng := engine.NewWith(*workers, nil, engOpts...)
	// The estimator is always attached — clients opt in per submission
	// even on an exact-by-default daemon; calibration runs lazily, so an
	// estimator nobody consults costs nothing. -estimate only moves the
	// default for spec-less submissions.
	eng.SetEstimator(analytic.New(eng))
	eng.SetEstimateMode(estMode)

	cfg := service.Config{
		MaxQueue:   *maxQueue,
		JobTimeout: *jobTimeout,
	}
	if !*quiet {
		cfg.Logf = logf
	}
	d := service.New(eng, fleet, cfg)

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		logf("%v", err)
		stopProfiles()
		os.Exit(1)
	}
	pool := *workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	mode := fmt.Sprintf("local pool (%d workers)", pool)
	if fleet != nil {
		mode = fmt.Sprintf("fleet (%d workers registered)", len(fleet.WorkerStates()))
	}
	cache := "memory-only cache"
	if store != nil {
		cache = "cache dir " + store.Dir()
	}
	logf("serving %s on %s (%s, %s)", service.ProtocolVersion, lis.Addr(), mode, cache)

	// The dispatch loops deliberately do NOT run on the signal context:
	// SIGTERM must drain — finish in-flight dispatches, hand queued work
	// back skipped — not cancel mid-simulation, which would throw the
	// in-flight work away. Serve observes the signal, drains and
	// closes the daemon; Run exits on Close, and the cancel below is
	// only a safety net for an errored Serve.
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	done := make(chan struct{})
	go func() {
		d.Run(runCtx)
		close(done)
	}()
	err = service.Serve(ctx, lis, d)
	cancelRun()
	<-done // queued work drains before the process exits
	stopProfiles()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	stats := eng.Stats()
	logf("shut down: engine: %s", stats)
}
