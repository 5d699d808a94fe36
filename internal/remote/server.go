package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"power5prio/internal/engine"
)

// ServerConfig configures a worker-side server.
type ServerConfig struct {
	// Workers bounds the worker's simulation pool (<= 0 = all cores).
	Workers int
	// Logf, when non-nil, receives one line per request served.
	Logf func(format string, args ...any)
}

// maxRunBatch is the largest run request a worker accepts. The fleet
// chunks to DefaultMaxInFlight; the bound protects a worker from an
// oversized hand-written request.
const maxRunBatch = 4096

// Server executes job batches for a p5d daemon on a local worker pool.
// It keeps no cache: the daemon's engine resolves its cache tiers and
// flight table before it dispatches, so every job that reaches a
// worker is one nobody has answered yet.
type Server struct {
	cfg      ServerConfig
	pool     *engine.LocalBackend
	maxBatch int // maxRunBatch; tests lower it
	jobs     atomic.Int64
}

// NewServer builds a worker-side server. Job refs resolve against the
// built-in workloads only: custom kernels cannot travel over the wire
// (see the package comment).
func NewServer(cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Server{cfg: cfg, pool: engine.NewLocalBackend(cfg.Workers, nil), maxBatch: maxRunBatch}
}

// Handler returns the HTTP handler serving the protocol endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RunPath, s.handleRun)
	mux.HandleFunc(HealthPath, s.handleHealth)
	return mux
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "health is GET", http.StatusMethodNotAllowed)
		return
	}
	h := Health{
		Protocol: ProtocolVersion,
		Capacity: s.cfg.Workers,
		Jobs:     s.jobs.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "run is POST", http.StatusMethodNotAllowed)
		return
	}
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad run request: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkProtocol(req.Protocol); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) > s.maxBatch {
		http.Error(w, fmt.Sprintf("batch of %d jobs exceeds the worker's limit of %d", len(req.Jobs), s.maxBatch), http.StatusRequestEntityTooLarge)
		return
	}

	// Verify every job's key before executing anything: the client's key
	// and a key recomputed from the decoded value must agree, or the two
	// binaries disagree about what the job means (schema drift) and the
	// result could alias a different measurement.
	resp := RunResponse{Protocol: ProtocolVersion, Results: make([]WireResult, len(req.Jobs))}
	var runnable []engine.Job
	var runnableIdx []int
	for i, wj := range req.Jobs {
		resp.Results[i].Key = wj.Key
		if key := engine.JobKey(wj.Job).String(); key != wj.Key {
			resp.Results[i].Err = fmt.Sprintf(
				"remote: job key mismatch: client sent %s, worker computes %s (incompatible binaries or corrupted request)",
				wj.Key, key)
			continue
		}
		runnable = append(runnable, wj.Job)
		runnableIdx = append(runnableIdx, i)
	}

	start := time.Now()
	// The local pool has no backend-level failure: its error is always nil.
	results, _ := s.pool.RunProgress(r.Context(), runnable, nil)
	for k, res := range results {
		i := runnableIdx[k]
		if res.Err != nil {
			resp.Results[i].Err = res.Err.Error()
			continue
		}
		resp.Results[i].Pair = res.Pair
	}
	s.jobs.Add(int64(len(req.Jobs)))
	s.logf("run: %d jobs in %s", len(req.Jobs), time.Since(start).Round(time.Millisecond))

	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("run: response write failed: %v", err)
	}
}

// ServeHandler serves handler — usually a NewServer(cfg).Handler(),
// possibly wrapped in middleware (e.g. chaos.Middleware for
// fault-injection runs) — on the listener until ctx is cancelled, then
// shuts down gracefully (in-flight requests get a grace period to
// finish). It returns nil on a clean shutdown.
func ServeHandler(ctx context.Context, lis net.Listener, handler http.Handler) error {
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// The serve ctx is already dead here; the shutdown deadline
		// must outlive it or in-flight requests would be cut off.
		//p5lint:allow ctxflow graceful shutdown needs a root deadline
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
