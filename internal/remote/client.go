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
	"power5prio/internal/fame"
)

// DefaultMaxInFlight is the per-worker in-flight job limit: the largest
// chunk of a batch a client keeps outstanding on one worker. Small
// enough that a slow worker strands few jobs when it fails (the daemon
// requeues them), large enough to keep a worker's pool busy and
// amortize the HTTP round trip.
const DefaultMaxInFlight = 16

// HTTPBackend executes jobs on one remote worker over the JSON
// protocol. It implements engine.Backend; wrap several in a
// ShardedBackend to fan batches out across a fleet. The zero value is
// not usable; call NewHTTPBackend.
type HTTPBackend struct {
	base     string // http://host:port
	client   *http.Client
	inflight int // chunk size: DefaultMaxInFlight (tests lower it)

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
		base:     strings.TrimRight(base, "/"),
		client:   &http.Client{},
		inflight: DefaultMaxInFlight,
	}
}

// Name identifies the worker in diagnostics.
func (b *HTTPBackend) Name() string { return "remote(" + b.base + ")" }

// Capacity is the per-worker in-flight limit — the chunk size a
// ShardedBackend dispatches to this worker.
func (b *HTTPBackend) Capacity() int { return b.inflight }

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

// Run executes the batch on the worker in chunks of at most the
// in-flight limit. A worker-level failure (unreachable, bad protocol,
// non-2xx) stops the batch: jobs already executed keep their results,
// every remaining job returns a Skipped result carrying the failure,
// and the failure is also returned as Run's error so the sharding layer
// can open the worker's breaker. Job-level errors are never retried
// here — they are deterministic properties of the job.
func (b *HTTPBackend) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Result, len(jobs))
	for start := 0; start < len(jobs); start += b.inflight {
		end := start + b.inflight
		if end > len(jobs) {
			end = len(jobs)
		}
		if err := ctx.Err(); err != nil {
			b.skipFrom(out, jobs, start, err)
			return out, nil // cancellation is not a worker failure
		}
		if err := b.runChunk(ctx, jobs, out, start, end); err != nil {
			if ctx.Err() != nil {
				b.skipFrom(out, jobs, start, ctx.Err())
				return out, nil
			}
			b.mu.Lock()
			b.rs.WorkerErrors++
			b.mu.Unlock()
			err = fmt.Errorf("remote: worker %s: %w", b.base, err)
			b.skipFrom(out, jobs, start, err)
			return out, err
		}
	}
	return out, nil
}

// skipFrom marks every job from index start on as never attempted.
func (b *HTTPBackend) skipFrom(out []Result, jobs []Job, start int, err error) {
	for k := start; k < len(jobs); k++ {
		out[k] = Result{Job: jobs[k], Err: err, Skipped: true}
	}
}

// runChunk posts jobs[start:end] and decodes their results into
// out[start:end]. Any returned error means none of the chunk's results
// were recorded (the response could not be trusted as a whole).
func (b *HTTPBackend) runChunk(ctx context.Context, jobs []Job, out []Result, start, end int) error {
	req := RunRequest{Protocol: ProtocolVersion, Jobs: make([]WireJob, end-start)}
	for k := start; k < end; k++ {
		req.Jobs[k-start] = WireJob{Key: engine.JobKey(jobs[k]).String(), Job: jobs[k]}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encode run request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+RunPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return fmt.Errorf("%s: %s", hresp.Status, strings.TrimSpace(string(msg)))
	}
	var resp RunResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return fmt.Errorf("decode run response: %w", err)
	}
	if err := checkProtocol(resp.Protocol); err != nil {
		return err
	}
	if len(resp.Results) != end-start {
		return fmt.Errorf("worker returned %d results for %d jobs", len(resp.Results), end-start)
	}
	for k := start; k < end; k++ {
		wr := resp.Results[k-start]
		if wr.Key != req.Jobs[k-start].Key {
			return fmt.Errorf("worker returned result for key %s at position of %s", wr.Key, req.Jobs[k-start].Key)
		}
		r := Result{Job: jobs[k], Pair: wr.Pair}
		if wr.Err != "" {
			r.Err = errors.New(wr.Err)
			r.Pair = fame.PairResult{}
		}
		out[k] = r
	}
	b.mu.Lock()
	b.rs.Jobs += end - start
	b.mu.Unlock()
	return nil
}

// Job and Result alias the engine types the wire code moves around.
type (
	Job    = engine.Job
	Result = engine.Result
)
