// Package cmdutil holds the flag plumbing shared by the p5* commands —
// the persistent cache directory, the fast-forward switch, CPU/heap
// profiling and the -submit daemon wiring — so every command
// (including new ones like p5worker) spells them identically and gets
// them from one place. Commands are expected to call the returned stop
// function on every exit path that matters (os.Exit skips deferred
// functions).
package cmdutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"power5prio/internal/analytic"
	"power5prio/internal/cachestore"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/service"
)

// Common carries the flag values every p5* command shares. Register
// with AddCommonFlags, then call Init after flag.Parse.
type Common struct {
	prog        string
	CacheDir    string
	FastForward string
	CPUProfile  string
	MemProfile  string
}

// AddCommonFlags registers the shared flags (-cache-dir, -fastforward,
// -cpuprofile, -memprofile) on fs and returns their destination.
func AddCommonFlags(prog string, fs *flag.FlagSet) *Common {
	c := &Common{prog: prog}
	fs.StringVar(&c.CacheDir, "cache-dir", "", "persist simulation results in this directory (reused across runs, shareable between commands)")
	fs.StringVar(&c.FastForward, "fastforward", "on", "idle-cycle fast-forward: on|off (results are identical either way; off for A/B debugging)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// Init applies the parsed shared flags: it installs the fast-forward
// setting and opens the persistent cache when -cache-dir was given
// (exiting with a message when the directory cannot be opened — a cache
// the user asked for must not be silently dropped). The returned store
// is nil without -cache-dir. Profiling is started separately with
// StartProfiles so commands with administrative early exits can defer
// it past them.
func (c *Common) Init() *cachestore.Store {
	SetFastForward(c.prog, c.FastForward)
	if c.CacheDir == "" {
		return nil
	}
	store, err := cachestore.Open(c.CacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
		os.Exit(1)
	}
	return store
}

// StartProfiles starts the profiles the shared flags requested; call
// the returned stop function exactly once before the process exits.
func (c *Common) StartProfiles() func() {
	return StartProfiles(c.prog, c.CPUProfile, c.MemProfile)
}

// healthWait bounds how long ServiceBackend waits for the daemon to
// come up — long enough for a daemon started moments earlier (e.g. by
// a CI script) to bind its socket, short enough that a typo fails fast.
const healthWait = 5 * time.Second

// ServiceBackend builds the client backend for a -submit value (a p5d
// daemon address), health-checking the daemon within the healthWait
// grace window and exiting when it never answers. clientID names the
// tenant for the daemon's fair scheduling ("" = a per-process default).
func ServiceBackend(ctx context.Context, prog, addr, clientID string) *service.Client {
	c := service.NewClient(addr, service.WithClientID(clientID))
	deadline := time.Now().Add(healthWait)
	for {
		err := c.Healthy(ctx)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// EstimateFlagHelp is the shared usage string for the -estimate flag
// the measurement commands register.
const EstimateFlagHelp = "tier-0 analytical answers: off|always|default|<tolerance> — serve model predictions whose error bar (absolute per-thread IPC) is within the tolerance; \"default\" uses the committed calibration bound. Estimated results are flagged and never cached."

// ParseEstimate parses an -estimate flag value into the engine mode it
// names: "off" (exact answers only), "always" (serve every answer the
// model offers), "default" (accept error bars up to the committed
// calibration tolerance, so every in-domain pair is served by tier 0),
// or a number — the largest error bar, in absolute per-thread IPC, to
// accept before escalating to simulation. It exits with code 2 on
// anything else, prefixing the message with prog.
func ParseEstimate(prog, v string) engine.EstimateMode {
	switch v {
	case "off":
		return engine.EstimateOff()
	case "always":
		return engine.EstimateAlways()
	case "default":
		return engine.EstimateTolerance(analytic.DefaultTolerance())
	}
	tol, err := strconv.ParseFloat(v, 64)
	if err != nil || tol < 0 {
		fmt.Fprintf(os.Stderr, "%s: -estimate must be off, always, default or a non-negative error-bar tolerance, got %q\n", prog, v)
		os.Exit(2)
	}
	return engine.EstimateTolerance(tol)
}

// SetFastForward parses a -fastforward flag value (on|off, with
// true/false/1/0 accepted as spellings) and applies it globally. It
// exits with code 2 on anything else, prefixing messages with prog.
func SetFastForward(prog, v string) {
	switch v {
	case "on", "true", "1":
		fame.SetFastForward(true)
	case "off", "false", "0":
		fame.SetFastForward(false)
	default:
		fmt.Fprintf(os.Stderr, "%s: -fastforward must be on or off, got %q\n", prog, v)
		os.Exit(2)
	}
}

// StartProfiles begins CPU profiling (when cpu is non-empty) and
// returns the function that stops it and writes the heap profile (when
// mem is non-empty). Call the returned function exactly once before the
// process exits; it is safe to call when neither profile was requested.
func StartProfiles(prog, cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			}
		}
	}
}
