// Command e2e is the repository benchmark's end-to-end run: it drives one
// workload through the public power5prio API (and, for serving, the
// commit's own p5d and p5worker binaries) with tracing off, checks every
// answer and prints the metrics. The last line of standard output is
// the JSON verdict. Run it through perfbench/run.sh, which builds it.
//
//	e2e --workload regen_busy --seed 1 --seconds 20 --bin .bench_build/bin --work .bench_build/work
//	e2e --workload serve_mixed --steady 5 ...   # steadiness report over seeds 1..5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"power5prio/perfbench/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: regen_busy|regen_mem|serve_mixed")
		seed     = flag.Int64("seed", 1, "workload seed: submission order, query stream and correctness sample")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		bin      = flag.String("bin", "", "directory holding the p5d and p5worker binaries")
		work     = flag.String("work", "", "scratch directory for caches and logs (inside the checkout)")
		commit   = flag.String("commit", "unknown", "commit or source digest the binaries were built from")
		steady   = flag.Int("steady", 0, "run the workload this many times (seeds 1..k) and print the steadiness report instead")
		defPath  = flag.String("def", "BENCHMARK.json", "benchmark definition: the metrics to report, their units and bounds")
		trace    = flag.Int("trace", 0, "must be 0: the traced per-layer run is cmd/layers")
	)
	flag.Parse()
	if *trace != 0 {
		fmt.Fprintln(os.Stderr, "e2e: --trace 1 is the per-layer run; use cmd/layers")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := bench.Steadiness(os.Stdout, os.Args[0], *workload, *seconds, *steady, *defPath, passThrough()); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			os.Exit(1)
		}
		return
	}
	def, err := bench.LoadDefinition(*defPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := bench.NewEnv(*workload, *seed, *seconds, false, *commit)
	res, notes, err := run(ctx, &env, *bin, *work)
	if err == nil {
		err = def.Check(res, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	env.Print(os.Stdout, res, notes)
	if err := bench.WriteResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2e: %s: correctness gate failed (see INCORRECT notes)\n", *workload)
		os.Exit(1)
	}
}

func run(ctx context.Context, env *bench.Env, bin, work string) (bench.Result, []string, error) {
	if w, ok := bench.RegenWorkloads[env.Workload]; ok {
		return bench.RunRegen(ctx, w, env)
	}
	if env.Workload == bench.ServeName {
		return bench.RunServe(ctx, bench.ServeMixed(), env, bin, work)
	}
	return bench.Result{}, nil, fmt.Errorf("unknown workload %q", env.Workload)
}

// passThrough returns the flags a steadiness child run inherits.
func passThrough() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "bin", "work", "commit", "def":
			args = append(args, "--"+f.Name, f.Value.String())
		}
	})
	return args
}
