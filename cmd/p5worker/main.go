// Command p5worker serves the distributed execution protocol: it runs
// simulation jobs posted by the p5d daemon whose fleet it joined with
// -register on a local worker pool. The worker keeps no cache: p5d
// answers every job it can from its own cache tiers before dispatching,
// so a persistent store belongs on p5d (-cache-dir there); p5worker
// refuses -cache-dir.
//
// Usage:
//
//	p5worker                                      # serve on 127.0.0.1:7550
//	p5worker -listen 0.0.0.0:7550 -workers 8      # serve a LAN, bounded pool
//	p5worker -listen 127.0.0.1:0                  # pick a free port (printed)
//	p5worker -register daemon:7551                # join a p5d daemon's fleet
//
// With -register, the worker announces itself to a p5d daemon on
// startup (retrying a refused first announce after 100 ms, then with
// doubling pauses up to the heartbeat) and re-announces every
// heartbeat interval, so a daemon started with -fleet grows its fleet
// as workers come up, and a worker the daemon marked down after a
// failed run (crash, restart, network partition) is readmitted on its
// next heartbeat. -advertise overrides
// the address the worker registers (needed behind NAT or when binding
// a wildcard address).
//
// The worker prints its bound address on startup and one line per batch
// served. SIGINT/SIGTERM shut it down gracefully (in-flight batches
// finish). Results are bit-identical to local execution provided daemon
// and workers run the same build; a version or schema skew is detected
// per request and fails loudly instead of measuring the wrong thing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"power5prio/internal/chaos"
	"power5prio/internal/cmdutil"
	"power5prio/internal/remote"
	"power5prio/internal/service"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7550", "address to serve the worker protocol on (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = all CPU cores)")
		register  = flag.String("register", "", "register with (and heartbeat to) a p5d daemon at host:port")
		advertise = flag.String("advertise", "", "address to register with the daemon (default: the bound listen address)")
		heartbeat = flag.Duration("heartbeat", 15*time.Second, "re-registration interval with -register (readmits a worker the daemon marked down)")
		chaosPlan = flag.String("chaos", "", "fault-injection plan JSON (see internal/chaos) applied to this worker's HTTP handler")
		quiet     = flag.Bool("quiet", false, "suppress the per-batch log lines")
		common    = cmdutil.AddCommonFlags("p5worker", flag.CommandLine)
	)
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "p5worker: "+format+"\n", args...)
	}
	if common.CacheDir != "" {
		logf("-cache-dir is not supported: workers keep no cache; give the directory to p5d -cache-dir")
		os.Exit(2)
	}
	common.Init()
	stopProfiles := common.StartProfiles()

	if *register != "" && *heartbeat <= 0 {
		logf("-heartbeat must be positive, got %v", *heartbeat)
		stopProfiles()
		os.Exit(2)
	}

	cfg := remote.ServerConfig{Workers: *workers}
	if !*quiet {
		cfg.Logf = logf
	}
	var handler http.Handler = remote.NewServer(cfg).Handler()
	if *chaosPlan != "" {
		plan, err := chaos.Load(*chaosPlan)
		if err != nil {
			logf("%v", err)
			stopProfiles()
			os.Exit(1)
		}
		handler = chaos.Middleware(handler, chaos.NewInjector(plan))
		logf("CHAOS: injecting faults from %s (seed %d, %d rules)", *chaosPlan, plan.Seed, len(plan.Rules))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		logf("%v", err)
		stopProfiles()
		os.Exit(1)
	}
	logf("serving %s on %s", remote.ProtocolVersion, lis.Addr())

	if *register != "" {
		addr := *advertise
		if addr == "" {
			addr = lis.Addr().String()
		}
		// Register now, and again on every heartbeat: the first call
		// joins the daemon's fleet (retried with a short backoff while
		// the daemon is not up yet), repeats are cheap no-ops that double
		// as the liveness signal marking this worker up again after a
		// crash or partition. It runs beside the server below because
		// the daemon health-checks the advertised address before
		// admitting it.
		go service.RegisterWorker(ctx, *register, addr, *heartbeat, logf)
	}

	err = remote.ServeHandler(ctx, lis, handler)
	stopProfiles()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("shut down")
}
