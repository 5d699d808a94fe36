package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/remote"
)

// Handler returns the HTTP handler serving the p5queue endpoints.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(SubmitPath, d.handleSubmit)
	mux.HandleFunc(StatsPath, d.handleStats)
	mux.HandleFunc(RegisterPath, d.handleRegister)
	mux.HandleFunc(HealthPath, d.handleHealth)
	return mux
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "health is GET", http.StatusMethodNotAllowed)
		return
	}
	d.mu.Lock()
	depth := d.depth
	d.mu.Unlock()
	h := Health{Protocol: ProtocolVersion, QueueDepth: depth}
	if d.fleet != nil {
		h.Workers = len(d.fleet.WorkerStates())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "stats is GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.Stats())
}

func (d *Daemon) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "register is POST", http.StatusMethodNotAllowed)
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad register request: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkProtocol(req.Protocol); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Addr == "" {
		http.Error(w, "register: empty worker addr", http.StatusBadRequest)
		return
	}
	added, err := d.RegisterWorker(r.Context(), req.Addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp := RegisterResponse{Protocol: ProtocolVersion, Added: added}
	if d.fleet != nil {
		resp.Workers = len(d.fleet.WorkerStates())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// maxJobBytes is the submit body allowance per admissible job: a
// submission larger than MaxQueue of them could never be admitted, so
// its body is refused with 413 before it is buffered. A v5 row takes
// about 250 bytes and a profile about 900, so even a submission whose
// every job has its own profile fits.
const maxJobBytes = 4 << 10

// handleSubmit admits a job batch and streams its results as NDJSON
// events. Jobs whose key does not match a recomputation from the
// rebuilt value (schema drift between binaries), or whose row names a
// profile the table lacks, fail immediately and are never queued; a
// submission that would overflow the queue is rejected wholesale with
// 429 and a Retry-After hint, and a body too large to ever be admitted
// with 413.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "submit is POST", http.StatusMethodNotAllowed)
		return
	}
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, int64(d.cfg.MaxQueue)*maxJobBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("submit body exceeds %d bytes (%d per admissible job)", tooBig.Limit, maxJobBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad submit request: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkProtocol(req.Protocol); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Profiles) > len(req.Jobs) {
		http.Error(w, fmt.Sprintf("bad submit request: %d profiles for %d jobs", len(req.Profiles), len(req.Jobs)),
			http.StatusBadRequest)
		return
	}

	// Verify every key before anything queues; drifted jobs resolve
	// immediately as per-job errors, exactly like the worker protocol.
	var rejected []Event
	var runnable []engine.Job
	var runnableIdx []int
	var runnableKey []string
	for i, row := range req.Jobs {
		job, err := req.job(i)
		if err == nil {
			if key := engine.JobKey(job).String(); key != row.Key {
				err = fmt.Errorf("service: job key mismatch: client sent %s, daemon computes %s (incompatible binaries or corrupted request)",
					row.Key, key)
			}
		}
		if err != nil {
			res := wireResult(row.Key, engine.Result{Err: err})
			rejected = append(rejected, Event{Type: EventResult, Index: i, Result: &res})
			continue
		}
		runnable = append(runnable, job)
		runnableIdx = append(runnableIdx, i)
		runnableKey = append(runnableKey, row.Key)
	}

	// Resolve the submission's tier-0 policy: an explicit spec wins
	// (the empty spec maps to zero tolerance — exact answers only),
	// absent means the daemon's default.
	mode := d.eng.EstimateMode()
	if req.Estimate != nil {
		if req.Estimate.Always {
			mode = engine.EstimateAlways()
		} else {
			mode = engine.EstimateTolerance(req.Estimate.Tolerance)
		}
	}

	sub, err := d.enqueue(req.Client, runnable, mode)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrDraining):
			// Transient: a successor daemon will take the work. The
			// Retry-After marks the 503 as back-off-and-retry for the
			// client, distinguishing it from the terminal ErrClosed.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
		return
	}

	// Events are flushed per burst, not per event: a result is written
	// out only when no further one is already waiting, and a header
	// whose results are not ready yet goes out alone, so the client's
	// idle watchdog starts from it.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if enc.Encode(Event{Type: EventHeader, Protocol: ProtocolVersion, Accepted: len(runnable)}) != nil {
		return
	}
	for _, ev := range rejected {
		if enc.Encode(ev) != nil {
			return
		}
	}
	for served := 0; served < len(runnable); served++ {
		if len(sub.ch) == 0 {
			flush()
		}
		select {
		case ir := <-sub.ch:
			res := wireResult(runnableKey[ir.idx], ir.res)
			if enc.Encode(Event{Type: EventResult, Index: runnableIdx[ir.idx], Result: &res, Skipped: ir.res.Skipped}) != nil {
				return
			}
		case <-r.Context().Done():
			// Client gone. The queued jobs still dispatch (the
			// submission channel is buffered) and warm the cache.
			return
		}
	}
	if enc.Encode(Event{Type: EventDone}) == nil {
		flush()
	}
}

// wireResult renders an engine result for the stream.
func wireResult(key string, r engine.Result) remote.WireResult {
	out := remote.WireResult{
		Key: key, Pair: r.Pair, Cached: r.CacheHit,
		Estimated: r.Estimated, ErrorBar: r.ErrorBar,
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

// drainTimeout bounds the graceful-shutdown window: how long open
// streams get to finish their in-flight dispatches and emit their
// done events before the listener is torn down.
const drainTimeout = 30 * time.Second

// Serve runs the daemon's HTTP front end on the listener until ctx is
// cancelled, then shuts down gracefully: Drain first — admission stops
// with 503 + Retry-After, queued work is handed back skipped, open
// streams end with done — then the HTTP server waits
// (up to drainTimeout) for those streams, and only then is the daemon
// Closed. The daemon's dispatch loops (Run) are the caller's to start,
// on a context that outlives ctx so in-flight dispatches finish.
func Serve(ctx context.Context, lis net.Listener, d *Daemon) error {
	srv := &http.Server{Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		d.Drain()
		// The serve ctx is already dead here; the shutdown deadline
		// must outlive it or in-flight streams would be cut off.
		//p5lint:allow ctxflow graceful shutdown needs a root deadline
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		d.Close()
		if err != nil {
			srv.Close()
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
