// Command p5sim runs a single workload or a co-scheduled pair on the
// simulated POWER5 core and reports FAME-measured performance. Workloads
// resolve through the unified registry, so a pair may mix families
// (micro-benchmark vs synthetic SPEC) freely.
//
// Usage:
//
//	p5sim -a cpu_int -b ldint_mem -pa 6 -pb 2
//	p5sim -a cpu_int -b mcf            # mixed-family pair
//	p5sim -a mcf -single
//	p5sim -list
//	p5sim -a mcf -b equake -sweep -submit daemon:7551
//
// Ctrl-C during -sweep prints the settings measured so far.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"power5prio"

	"power5prio/internal/cmdutil"
	"power5prio/internal/core"
	"power5prio/internal/experiments"
	"power5prio/internal/fame"
	"power5prio/internal/power"
	"power5prio/internal/prio"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nameA   = flag.String("a", "cpu_int", "first workload (micro-benchmark or SPEC name)")
		nameB   = flag.String("b", "", "second workload; empty with -single for ST mode")
		pa      = flag.Int("pa", 4, "priority of the first workload (1-7)")
		pb      = flag.Int("pb", 4, "priority of the second workload (1-7)")
		single  = flag.Bool("single", false, "run the first workload alone (single-thread mode)")
		reps    = flag.Int("reps", 10, "minimum FAME repetitions per thread")
		workers = flag.Int("workers", 0, "worker pool size for -sweep (0 = all CPU cores)")
		sweep   = flag.Bool("sweep", false, "sweep the pair across all priority differences [-5,+5] as one batch")
		list    = flag.Bool("list", false, "list available workloads and exit")
		showPow = flag.Bool("power", false, "estimate core power with the activity model")
		disasm  = flag.Bool("disasm", false, "print the first workload's loop body and exit")
		submit  = flag.String("submit", "", "submit measurements to a p5d daemon at host:port instead of running locally")
		est     = flag.String("estimate", "off", cmdutil.EstimateFlagHelp)
		common  = cmdutil.AddCommonFlags("p5sim", flag.CommandLine)
	)
	flag.Parse()
	estMode := cmdutil.ParseEstimate("p5sim", *est)
	store := common.Init()

	if *list {
		fmt.Println("micro-benchmarks:", strings.Join(power5prio.Microbenchmarks(), " "))
		fmt.Println("spec workloads:  ", strings.Join(power5prio.SPECWorkloads(), " "))
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := power5prio.DefaultMeasureOptions()
	opts.MinReps = *reps
	sysOpts := []power5prio.Option{
		power5prio.WithMeasureOptions(opts),
		power5prio.WithWorkers(*workers),
		power5prio.WithEstimate(estMode),
	}
	if store != nil {
		// A re-run of the same workloads and settings — including a
		// repeated -sweep — is then served from disk without simulating.
		sysOpts = append(sysOpts, power5prio.WithCache(store))
	}
	if *submit != "" {
		// Built before profiling starts: an unreachable daemon exits
		// here, and os.Exit must not abandon a live CPU profile.
		sysOpts = append(sysOpts, power5prio.WithBackend(cmdutil.ServiceBackend(ctx, "p5sim", *submit, "")))
	}
	defer common.StartProfiles()()
	sys := power5prio.New(power5prio.DefaultConfig(), sysOpts...)

	build := func(name string) *power5prio.Kernel {
		k, err := power5prio.Workload(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p5sim: unknown workload %q (try -list)\n", name)
			os.Exit(1)
		}
		return k
	}

	if *disasm {
		fmt.Print(build(*nameA).Disassemble())
		return 0
	}

	if *showPow {
		runWithPower(build(*nameA), buildOrNil(build, *nameB, *single),
			prio.Level(*pa), prio.Level(*pb), *reps)
		return 0
	}

	if *sweep {
		if *nameB == "" {
			fmt.Fprintln(os.Stderr, "p5sim: -sweep needs two workloads (-a and -b)")
			return 2
		}
		return runSweep(ctx, sys, *nameA, *nameB)
	}

	if *single || *nameB == "" {
		res, err := sys.MeasureSingleSpec(ctx, power5prio.Spec{A: *nameA, PA: power5prio.Level(*pa)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "p5sim:", err)
			return 1
		}
		fmt.Printf("%s (single-thread): IPC %.3f, %.0f cycles/rep over %d reps\n",
			*nameA, res.IPC, res.AvgRepCycles, res.Reps)
		return 0
	}

	res, err := sys.Measure(ctx, power5prio.Spec{
		A: *nameA, B: *nameB,
		PA: power5prio.Level(*pa), PB: power5prio.Level(*pb),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "p5sim:", err)
		return 1
	}
	fmt.Printf("priorities (%d,%d)  decode share %.4f : %.4f\n",
		*pa, *pb, power5prio.Share(*pa-*pb), 1-power5prio.Share(*pa-*pb))
	fmt.Printf("  %-18s IPC %.3f  %.0f cycles/rep  (%d reps)\n",
		*nameA, res.Thread[0].IPC, res.Thread[0].AvgRepCycles, res.Thread[0].Reps)
	fmt.Printf("  %-18s IPC %.3f  %.0f cycles/rep  (%d reps)\n",
		*nameB, res.Thread[1].IPC, res.Thread[1].AvgRepCycles, res.Thread[1].Reps)
	fmt.Printf("  total IPC %.3f over %d cycles\n", res.TotalIPC, res.Cycles)
	if res.TimedOut {
		fmt.Println("  WARNING: measurement hit the cycle budget before converging")
	}
	return 0
}

// runSweep submits the pair at every priority difference in [-5,+5] as
// one batch; independent points simulate concurrently on the worker
// pool. Each row reports the answer tier that served it — simulation,
// cache, or a tier-0 estimate with its error bar. A cancelled sweep
// prints the completed settings. It returns the process exit code.
func runSweep(ctx context.Context, sys *power5prio.System, nameA, nameB string) int {
	diffs := []int{-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5}
	specs := make([]power5prio.Spec, len(diffs))
	for i, d := range diffs {
		pa, pb := experiments.DiffPair(d)
		specs[i] = power5prio.Spec{A: nameA, B: nameB, PA: pa, PB: pb}
	}
	results, err := sys.MeasureResults(ctx, specs)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "p5sim:", err)
		return 1
	}
	fmt.Printf("%-6s %-10s %12s %12s %10s  %s\n", "diff", "priorities", nameA, nameB, "total", "tier")
	done := 0
	for i, r := range results {
		tier := "sim"
		switch {
		case r.Skipped:
			tier = "-"
		case r.Estimated:
			tier = fmt.Sprintf("est ±%.2f", r.ErrorBar)
		case r.CacheHit:
			tier = "cache"
		}
		if !r.Skipped {
			done++
		}
		fmt.Printf("%+-6d (%d,%d)      %12.3f %12.3f %10.3f  %s\n",
			diffs[i], specs[i].PA, specs[i].PB,
			r.Pair.Thread[0].IPC, r.Pair.Thread[1].IPC, r.Pair.TotalIPC, tier)
	}
	fmt.Printf("engine: %s\n", sys.BatchStats())
	if err != nil {
		fmt.Fprintf(os.Stderr, "p5sim: interrupted after %d/%d settings\n", done, len(specs))
		return 130
	}
	return 0
}

// buildOrNil returns nil when running single-threaded.
func buildOrNil(build func(string) *power5prio.Kernel, name string, single bool) *power5prio.Kernel {
	if single || name == "" {
		return nil
	}
	return build(name)
}

// runWithPower runs the workload(s) on a chip directly so the activity
// counters are available for the power model.
func runWithPower(ka, kb *power5prio.Kernel, pa, pb prio.Level, reps int) {
	cfg := core.DefaultConfig()
	ch := core.NewChip(cfg)
	ch.PlacePair(ka, kb, pa, pb, prio.Supervisor)
	opts := fame.DefaultOptions()
	opts.MinReps = reps
	res := fame.Measure(ch, opts)
	rep := power.DefaultModel().Estimate(ch.ExperimentCore(), ch.Hier, cfg.ExperimentCore)
	fmt.Printf("total IPC %.3f  |  power: %s\n", res.TotalIPC, rep)
	for part, e := range rep.ByPart {
		fmt.Printf("  %-7s %12.0f (%.1f%%)\n", part, e, 100*e/rep.Energy)
	}
}
