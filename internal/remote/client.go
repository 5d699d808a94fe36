package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"power5prio/internal/engine"
)

// DefaultMaxInFlight is the per-worker in-flight job limit: the largest
// chunk of a batch a client keeps outstanding on one worker. Small
// enough that a slow worker strands few jobs when it fails (they go back
// skipped, for the client to resubmit), large enough to keep a worker's pool busy and
// amortize the HTTP round trip.
const DefaultMaxInFlight = 16

// HTTPBackend executes jobs on one remote worker over the JSON
// protocol. It is a fleet Worker; wrap several in a ShardedBackend to
// fan batches out across a fleet. The zero value is
// not usable; call NewHTTPBackend.
type HTTPBackend struct {
	base   string // http://host:port
	client *http.Client

	mu sync.Mutex
	rs engine.RemoteStats
}

// NewHTTPBackend returns a backend for one worker address: a host:port
// as passed to p5worker -listen, or a full http:// URL. Its HTTP client
// has no overall timeout — batches legitimately take minutes; the run
// context cancels them.
func NewHTTPBackend(addr string) *HTTPBackend {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &HTTPBackend{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{},
	}
}

// Name identifies the worker in diagnostics.
func (b *HTTPBackend) Name() string { return "remote(" + b.base + ")" }

// RemoteStats returns the backend's lifetime remote counters.
func (b *HTTPBackend) RemoteStats() engine.RemoteStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rs
}

// Healthy pings the worker's health endpoint and verifies the protocol
// version matches this binary's.
func (b *HTTPBackend) Healthy(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+HealthPath, nil)
	if err != nil {
		return fmt.Errorf("remote: %s: %w", b.base, err)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("remote: worker %s unreachable: %w", b.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote: worker %s health: %s", b.base, resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("remote: worker %s health: %w", b.base, err)
	}
	if err := checkProtocol(h.Protocol); err != nil {
		return fmt.Errorf("worker %s: %w", b.base, err)
	}
	return nil
}

// Run posts the batch to the worker in one request; the fleet already
// chunks batches to DefaultMaxInFlight. A worker-level failure (unreachable, bad
// protocol, non-2xx) returns every job Skipped carrying the failure,
// and the failure is also returned as Run's error so the sharding layer
// can mark the worker down. Job-level errors are never retried here —
// they are deterministic properties of the job.
func (b *HTTPBackend) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := b.post(ctx, jobs)
	if err == nil {
		b.mu.Lock()
		b.rs.Jobs += len(jobs)
		b.mu.Unlock()
		return out, nil
	}
	skip := ctx.Err()
	if skip == nil {
		b.mu.Lock()
		b.rs.WorkerErrors++
		b.mu.Unlock()
		err = fmt.Errorf("remote: worker %s: %w", b.base, err)
		skip = err
	} else {
		err = nil // cancellation is not a worker failure
	}
	out = make([]Result, len(jobs))
	for k, j := range jobs {
		out[k] = Result{Job: j, Err: skip, Skipped: true}
	}
	return out, err
}

// post sends jobs and decodes their results. Any returned error means
// none of the results were recorded (the response could not be trusted
// as a whole).
func (b *HTTPBackend) post(ctx context.Context, jobs []Job) ([]Result, error) {
	req := RunRequest{Protocol: ProtocolVersion, Jobs: make([]WireJob, len(jobs))}
	for k, j := range jobs {
		req.Jobs[k] = WireJob{Key: engine.JobKey(j).String(), Job: j}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode run request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+RunPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, fmt.Errorf("%s: %s", hresp.Status, strings.TrimSpace(string(msg)))
	}
	var resp RunResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode run response: %w", err)
	}
	if err := checkProtocol(resp.Protocol); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(jobs) {
		return nil, fmt.Errorf("worker returned %d results for %d jobs", len(resp.Results), len(jobs))
	}
	out := make([]Result, len(jobs))
	for k, wr := range resp.Results {
		if wr.Key != req.Jobs[k].Key {
			return nil, fmt.Errorf("worker returned result for key %s at position of %s", wr.Key, req.Jobs[k].Key)
		}
		out[k] = Result{Job: jobs[k], Pair: wr.Pair}
		if wr.Err != "" {
			out[k] = Result{Job: jobs[k], Err: errors.New(wr.Err)}
		}
	}
	return out, nil
}

// Job and Result alias the engine types the wire code moves around.
type (
	Job    = engine.Job
	Result = engine.Result
)
