// Command layers is the repository benchmark's traced per-layer run. It
// drives the same workloads as cmd/e2e, but times each layer from here:
// the simulator layers by replaying the workload's jobs through
// workload.Registry.Build, core.NewChip/PlacePair and fame.Measure on a
// counting chip wrapper; the serving layers by spans around every
// client query and by probes of engine, cachestore, analytic and wire
// calls on the run's own jobs. It prints every per-layer metric of
// BENCHMARK.json and writes the spans to --trace-dir. Its numbers are
// per-layer only; end-to-end figures come from cmd/e2e.
//
//	layers --workload regen_mem --seed 1 --seconds 20 --trace 1 --bin .bench_build/bin --work .bench_build/work --trace-dir .bench_build/trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"power5prio/perfbench/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to trace: regen_busy|regen_mem|serve_mixed")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "how long the serving load runs (regen_* replay one whole matrix)")
		bin      = flag.String("bin", "", "directory holding the p5d and p5worker binaries")
		work     = flag.String("work", "", "scratch directory for caches and logs (inside the checkout)")
		traceDir = flag.String("trace-dir", "", "directory the span file is written to")
		commit   = flag.String("commit", "unknown", "commit or source digest the binaries were built from")
		trace    = flag.Int("trace", 1, "must be 1: the untraced run is cmd/e2e")
		defPath  = flag.String("def", "BENCHMARK.json", "benchmark definition: the metrics to report and their units")
	)
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "layers: --trace 0 is the end-to-end run; use cmd/e2e")
		os.Exit(2)
	}
	def, err := bench.LoadDefinition(*defPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := bench.NewEnv(*workload, *seed, *seconds, true, *commit)
	rec := bench.NewRecorder()
	var l bench.Result
	var notes []string
	if w, ok := bench.RegenWorkloads[*workload]; ok {
		notes, err = traceRegen(ctx, w, &env, rec, &l, *bin, *work)
	} else if *workload == bench.ServeName {
		notes, err = traceServe(ctx, bench.ServeMixed(), &env, rec, &l, *bin, *work)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err == nil {
		err = def.Check(l, true)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *traceDir != "" {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := rec.WriteJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
			os.Exit(1)
		}
		notes = append(notes, fmt.Sprintf("%d spans written to %s", len(rec.Spans()), path))
	}
	notes = append(notes, selfTimeNotes(rec.Spans())...)
	env.Print(os.Stdout, l, notes)
	if err := bench.WriteResult(os.Stdout, l); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
	if !l.Correct {
		fmt.Fprintf(os.Stderr, "layers: %s: correctness gate failed (see INCORRECT notes)\n", *workload)
		os.Exit(1)
	}
}

// selfTimeNotes lists span names by total self time: where the traced
// run's wall time went, layer by layer.
func selfTimeNotes(spans []bench.Span) []string {
	self := bench.SelfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("self time %-28s %12.3fms", n, float64(self[n])/float64(time.Millisecond)))
	}
	return out
}
