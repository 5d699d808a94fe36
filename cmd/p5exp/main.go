// Command p5exp regenerates the tables and figures of Boneti et al.
// (ISCA 2008) on the simulated POWER5, printing the same rows and series
// the paper reports, next to the paper's values where applicable.
//
// Usage:
//
//	p5exp -exp table3            # one experiment
//	p5exp -exp all -quick        # everything, at reduced fidelity
//	p5exp -exp fig2 -csv         # machine-readable output
//	p5exp -exp all -quick -cache-dir ~/.cache/p5exp   # persist results
//	p5exp -cache-dir ~/.cache/p5exp -cache stats      # inspect the cache
//	p5exp -exp all -quick -submit daemon:7551         # run through a p5d daemon
//	p5exp -exp fig5 -estimate default    # tier-0 analytical answers within tolerance
//	p5exp -exp calib -quick              # model-vs-simulator residual gate
//
// With -cache-dir, results persist across invocations: a re-run of the
// same experiments performs no simulations (all disk hits), and
// -require-warm turns that expectation into an exit code for CI. The
// -cache flag administers the store: stats, verify (checksum-scan and
// drop corrupt entries) or clear.
//
// With -submit, jobs go to a shared p5d daemon, which runs them on the
// p5worker fleet registered with it (results are byte-identical to a
// local run — see README "Distributed runs"): concurrent clients
// submitting the same jobs get them simulated once, the daemon's cache
// answers repeat questions for everyone, and the engine stats line
// reports the remote jobs, retries and daemon errors.
//
// Ctrl-C cancels the sweep: whatever was measured before the interrupt
// is rendered (unmeasured cells as zeros), and the completed work stays
// in the engine cache — on disk, with -cache-dir — for the next
// invocation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"power5prio/internal/analytic"
	"power5prio/internal/cachestore"
	"power5prio/internal/cmdutil"
	"power5prio/internal/engine"
	"power5prio/internal/experiments"
	"power5prio/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table3|fig2|fig3|fig4|fig5|table4|fig6|calib|all")
		quick   = flag.Bool("quick", false, "reduced fidelity (fewer repetitions, shorter kernels)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verify  = flag.Bool("verify", false, "check the paper's headline claims and exit non-zero on failure")
		workers = flag.Int("workers", 0, "simulation worker pool size (0 = all CPU cores)")
		cacheOp = flag.String("cache", "", "cache administration with -cache-dir: stats|verify|clear (runs no experiment)")
		reqWarm = flag.Bool("require-warm", false, "with -cache-dir: exit non-zero if anything was simulated or missed the disk cache")
		submit  = flag.String("submit", "", "submit simulation jobs to a p5d daemon at host:port instead of running locally (shares its queue, cache and fleet with other clients)")
		client  = flag.String("client", "", "tenant name for -submit fair scheduling (default: a per-process id)")
		est     = flag.String("estimate", "off", cmdutil.EstimateFlagHelp)
		common  = cmdutil.AddCommonFlags("p5exp", flag.CommandLine)
	)
	flag.Parse()
	estMode := cmdutil.ParseEstimate("p5exp", *est)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store := common.Init()
	if *cacheOp != "" {
		os.Exit(runCacheOp(store, *cacheOp))
	}
	if *reqWarm && store == nil {
		fmt.Fprintln(os.Stderr, "p5exp: -require-warm needs -cache-dir")
		os.Exit(2)
	}
	// Execution backend: the in-process pool, or a shared p5d daemon
	// with -submit. The engine's cache tiers (including -cache-dir)
	// stay local either way, in front of the backend — with -submit the
	// daemon adds its own shared tiers behind them.
	engOpts := []engine.Option{engine.WithStore(store)}
	if *submit != "" {
		engOpts = append(engOpts, engine.WithBackend(cmdutil.ServiceBackend(ctx, "p5exp", *submit, *client)))
	}
	// Started after the administrative early exits above, so a live
	// profile can never be abandoned by os.Exit.
	stopProfiles := common.StartProfiles()

	h := experiments.Default()
	if *quick {
		h = experiments.Quick()
	}
	h.Engine = engine.NewWith(*workers, nil, engOpts...)
	// Tier 0 sits in front of every cache tier and the backend alike:
	// with -estimate, jobs the model can answer within tolerance never
	// reach simulation. Locally the engine runs the model itself; with
	// -submit the mode travels with each job and the daemon's model
	// answers. Off — or a zero tolerance — leaves every experiment
	// byte-identical to a run without the flag.
	if estMode.Enabled {
		if _, ok := h.Engine.Backend().(engine.EstimateBackend); !ok {
			h.Engine.SetEstimator(analytic.New(h.Engine))
		}
		h.Engine.SetEstimateMode(estMode)
	}
	// exit reports the engine stats before terminating: os.Exit skips
	// deferred functions, and the stats matter most on failed runs.
	exit := func(code int) {
		stopProfiles()
		stats := h.Engine.Stats()
		fmt.Fprintf(os.Stderr, "p5exp: engine: %s\n", stats)
		if code == 0 && *reqWarm && (stats.Simulated > 0 || stats.DiskMisses > 0) {
			fmt.Fprintf(os.Stderr, "p5exp: -require-warm: cache was cold (%d simulated, %d disk misses)\n",
				stats.Simulated, stats.DiskMisses)
			code = 3
		}
		os.Exit(code)
	}
	// interrupted notes a cancelled or failed sweep and picks the exit
	// code: 130 when ctx was cancelled, 1 when a job failed.
	interrupted := func(err error) {
		if err == nil {
			return
		}
		if ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "p5exp:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "p5exp: interrupted (%v); partial results above, completed work cached\n", err)
		exit(130)
	}

	if *verify {
		findings, err := experiments.VerifyMicrobenchClaims(ctx, h)
		interrupted(err)
		failed := false
		for _, f := range findings {
			fmt.Println(f)
			if !f.Pass {
				failed = true
			}
		}
		if failed {
			exit(1)
		}
		exit(0)
	}

	emit := func(tables ...*report.Table) {
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}

	run := func(name string) {
		switch name {
		case "table1":
			emit(table1())
		case "table3":
			r, err := experiments.Table3(ctx, h)
			emit(r.Render(), r.RenderComparison())
			interrupted(err)
		case "fig2":
			r, err := experiments.Fig2(ctx, h)
			emit(r.Render()...)
			interrupted(err)
		case "fig3":
			r, err := experiments.Fig3(ctx, h)
			emit(r.Render()...)
			interrupted(err)
		case "fig4":
			r, err := experiments.Fig4(ctx, h)
			emit(r.Render()...)
			interrupted(err)
		case "fig5":
			a, err := experiments.Fig5a(ctx, h)
			emit(a.Render())
			interrupted(err)
			b, err := experiments.Fig5b(ctx, h)
			emit(b.Render())
			interrupted(err)
		case "table4":
			r, err := experiments.Table4(ctx, h)
			if err != nil {
				interrupted(ctx.Err())
				fmt.Fprintln(os.Stderr, "p5exp:", err)
				exit(1)
			}
			emit(r.Render())
		case "fig6":
			r, err := experiments.Fig6(ctx, h)
			emit(r.Render()...)
			interrupted(err)
		case "calib":
			// The tier-0 accuracy gate: model vs simulator over the
			// calibration matrix, non-zero exit when any residual escapes
			// its committed error bar. Not part of "all" — it validates
			// the estimator, not the paper.
			r, err := experiments.Calib(ctx, h)
			if err != nil {
				interrupted(ctx.Err())
				fmt.Fprintln(os.Stderr, "p5exp:", err)
				exit(1)
			}
			fmt.Print(r.Render())
			if !r.WithinBounds() || r.MaxAbsResidual > r.Tolerance {
				exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "p5exp: unknown experiment %q\n", name)
			exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "table3", "fig2", "fig3", "fig4", "fig5", "table4", "fig6"} {
			run(name)
		}
		exit(0)
	}
	run(*exp)
	exit(0)
}

// runCacheOp administers the persistent cache and returns the exit
// code: stats prints entry count and size, verify checksum-scans every
// entry and removes corrupt ones (non-zero exit if any were found),
// clear empties the store.
func runCacheOp(store *cachestore.Store, op string) int {
	if store == nil {
		fmt.Fprintln(os.Stderr, "p5exp: -cache needs -cache-dir")
		return 2
	}
	switch op {
	case "stats":
		info, err := store.Info()
		if err != nil {
			fmt.Fprintln(os.Stderr, "p5exp:", err)
			return 1
		}
		fmt.Printf("cache %s: %d entries, %d bytes\n", store.Dir(), info.Entries, info.Bytes)
	case "verify":
		vr, err := store.Verify(true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p5exp:", err)
			return 1
		}
		fmt.Printf("cache %s: %d entries checked, %d corrupt (%d removed)\n",
			store.Dir(), vr.Checked, vr.Corrupt, vr.Removed)
		if vr.Corrupt > 0 {
			return 1
		}
	case "clear":
		if err := store.Clear(); err != nil {
			fmt.Fprintln(os.Stderr, "p5exp:", err)
			return 1
		}
		fmt.Printf("cache %s: cleared\n", store.Dir())
	default:
		fmt.Fprintf(os.Stderr, "p5exp: unknown cache operation %q (stats|verify|clear)\n", op)
		return 2
	}
	return 0
}

// table1 renders the priority/privilege/or-nop table (Table 1 is
// definitional; it is verified by unit tests, printed here for reference).
func table1() *report.Table {
	t := report.NewTable("Table 1: software-controlled thread priorities",
		"priority", "level", "privilege", "or-nop")
	rows := []struct {
		p     int
		name  string
		priv  string
		ornop string
	}{
		{0, "thread shut off", "hypervisor", "-"},
		{1, "very low", "supervisor", "or 31,31,31"},
		{2, "low", "user", "or 1,1,1"},
		{3, "medium-low", "user", "or 6,6,6"},
		{4, "medium", "user", "or 2,2,2"},
		{5, "medium-high", "supervisor", "or 5,5,5"},
		{6, "high", "supervisor", "or 3,3,3"},
		{7, "very high", "hypervisor", "or 7,7,7"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.p), r.name, r.priv, r.ornop)
	}
	return t
}
