package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/fame"
)

// DefaultSubmitChunk is the largest job batch one submit request
// carries. A chunk is also the admission unit: it must fit under the
// daemon's queue bound, and smaller chunks let fairness interleave
// tenants sooner.
const DefaultSubmitChunk = 256

// Client failure-handling defaults.
const (
	// DefaultIdleTimeout is the per-event idle deadline on the NDJSON
	// stream: if no event arrives for this long the client treats the
	// stream as stalled, drops it, and resubmits the unfinished jobs.
	// Generous because a cold simulation legitimately takes minutes; a
	// spurious trip only costs a reconnect — the daemon's singleflight
	// coalesces the resubmission onto the still-running job.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultBackpressureCap bounds the *cumulative* wait one chunk
	// spends in 429/503 backpressure before the client gives up with a
	// clear error instead of retrying a stuck daemon forever.
	DefaultBackpressureCap = 2 * time.Minute
	// DefaultResumeAttempts is how many consecutive resumes may make no
	// progress (no new result landed) before the client gives up. With
	// exponential backoff this spans roughly a minute of daemon outage
	// — enough to ride a restart, or an empty fleet until its workers
	// register.
	DefaultResumeAttempts = 10
	// healthTimeout bounds one Healthy probe.
	healthTimeout = 5 * time.Second
	// registerTimeout bounds one RegisterWorker exchange.
	registerTimeout = 10 * time.Second
)

// retryBase is the shortest backoff pause: the first resume retry, and
// a 429-rejected chunk when the daemon sends no Retry-After hint.
const retryBase = 500 * time.Millisecond

// maxRetryWait caps how long one backoff pause may be, whatever the
// daemon's Retry-After says or the exponential backoff reaches.
const maxRetryWait = 10 * time.Second

// Client submits jobs to a p5d daemon. It implements engine.Backend
// (and the estimate extension), so an engine constructed with
// engine.WithBackend(service.NewClient(addr)) transparently
// executes through the shared daemon: local cache tiers still apply,
// only locally-unknown jobs travel, and the daemon's tier 0 answers the
// jobs whose mode accepts an estimate.
//
// The client is the serving stack's one retry owner and rides failures
// out rather than surfacing them: admission backpressure (429, or 503 +
// Retry-After from a draining daemon) backs off under a cumulative cap;
// jobs the daemon hands back skipped, and those a stalled or truncated
// stream left unresolved, are resubmitted — only those. Against a
// restarted daemon the warm cache and singleflight make the resume
// cheap and the merged results byte-identical.
type Client struct {
	base            string
	client          *http.Client
	id              string
	chunk           int
	idleTimeout     time.Duration
	backpressureCap time.Duration
	resumeAttempts  int // DefaultResumeAttempts; tests lower it

	mu sync.Mutex
	rs engine.RemoteStats
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientID sets the tenant ID used for the daemon's fair
// scheduling (default: derived from the process, so concurrent
// processes are distinct tenants).
func WithClientID(id string) ClientOption {
	return func(c *Client) {
		if id != "" {
			c.id = id
		}
	}
}

// WithHTTPClient replaces the HTTP client (default: no overall timeout
// — submissions legitimately stream for minutes; cancel via ctx, the
// per-event idle deadline handles silent stalls).
func WithHTTPClient(h *http.Client) ClientOption { return func(c *Client) { c.client = h } }

// WithSubmitChunk bounds jobs per submit request (<= 0 =
// DefaultSubmitChunk).
func WithSubmitChunk(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.chunk = n
		}
	}
}

// WithIdleTimeout sets the per-event stream idle deadline (<= 0
// disables stall detection).
func WithIdleTimeout(d time.Duration) ClientOption { return func(c *Client) { c.idleTimeout = d } }

// WithBackpressureCap bounds the cumulative backpressure wait per
// chunk (<= 0 keeps the default).
func WithBackpressureCap(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.backpressureCap = d
		}
	}
}

// estimateSpec is the wire spec of a mode; a disabled mode maps to the
// empty spec, the explicit "exact answers only".
func estimateSpec(m engine.EstimateMode) EstimateSpec {
	if !m.Enabled {
		return EstimateSpec{}
	}
	return EstimateSpec{Always: m.Always, Tolerance: m.Tolerance}
}

// NewClient returns a client for a daemon address: host:port as passed
// to p5d -listen, or a full http:// URL.
func NewClient(addr string, opts ...ClientOption) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:            strings.TrimRight(base, "/"),
		client:          &http.Client{},
		id:              fmt.Sprintf("pid-%d", os.Getpid()),
		chunk:           DefaultSubmitChunk,
		idleTimeout:     DefaultIdleTimeout,
		backpressureCap: DefaultBackpressureCap,
		resumeAttempts:  DefaultResumeAttempts,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name identifies the daemon in diagnostics.
func (c *Client) Name() string { return "service(" + c.base + ")" }

// RemoteStats returns the client's lifetime counters.
func (c *Client) RemoteStats() engine.RemoteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rs
}

func (c *Client) addRetries(n int) {
	c.mu.Lock()
	c.rs.Retries += n
	c.mu.Unlock()
}

// Healthy pings the daemon and verifies the protocol version.
func (c *Client) Healthy(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+HealthPath, nil)
	if err != nil {
		return fmt.Errorf("service: %s: %w", c.base, err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("service: daemon %s unreachable: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: daemon %s health: %s", c.base, resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("service: daemon %s health: %w", c.base, err)
	}
	return checkProtocol(h.Protocol)
}

// RunProgress submits the batch in chunks, streaming each job's result
// through done as the daemon reports it. Backpressure (429 or a
// draining daemon's 503) backs off and retries under a cumulative cap;
// skipped results and a stalled or truncated stream resubmit only the
// unfinished jobs, riding out a daemon restart or an empty fleet. When
// the retry budgets run out, the jobs not yet delivered are skipped and
// the failure returned so a caller can retry them, matching the
// worker-backend contract. The submissions carry no estimate spec, so
// the daemon's default applies.
func (c *Client) RunProgress(ctx context.Context, jobs []engine.Job, done func(i int, r engine.Result)) ([]engine.Result, error) {
	return c.run(ctx, jobs, nil, done)
}

// RunEstimate implements engine.EstimateBackend: it is RunProgress
// with a tier-0 mode per job, so the daemon's estimator serves exactly
// the jobs whose own mode accepts its answer. Jobs are submitted one
// mode at a time, each submission carrying that mode's explicit spec
// (a disabled mode sends the empty spec: exact answers only). A daemon
// failure skips every job not yet delivered, as in RunProgress.
func (c *Client) RunEstimate(ctx context.Context, jobs []engine.Job, modes []engine.EstimateMode, done func(i int, r engine.Result)) ([]engine.Result, error) {
	var specs []EstimateSpec
	groups := make(map[EstimateSpec][]int)
	for i, m := range modes {
		sp := estimateSpec(m)
		if _, ok := groups[sp]; !ok {
			specs = append(specs, sp)
		}
		groups[sp] = append(groups[sp], i)
	}
	out := make([]engine.Result, len(jobs))
	for n, sp := range specs {
		idx := groups[sp]
		sub := make([]engine.Job, len(idx))
		for k, i := range idx {
			sub[k] = jobs[i]
		}
		res, err := c.run(ctx, sub, &sp, func(k int, r engine.Result) {
			if done != nil {
				done(idx[k], r)
			}
		})
		for k, i := range idx {
			out[i] = res[k]
		}
		if err != nil {
			for _, rest := range specs[n+1:] {
				for _, i := range groups[rest] {
					out[i] = engine.Result{Job: jobs[i], Err: err, Skipped: true}
					if done != nil {
						done(i, out[i])
					}
				}
			}
			return out, err
		}
	}
	return out, nil
}

// run submits jobs in chunks under one estimate spec (nil = the
// daemon's default); see RunProgress.
func (c *Client) run(ctx context.Context, jobs []engine.Job, spec *EstimateSpec, done func(i int, r engine.Result)) ([]engine.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]engine.Result, len(jobs))
	delivered := make([]bool, len(jobs))
	report := func(k int, r engine.Result) {
		out[k] = r
		delivered[k] = true
		if done != nil {
			done(k, r)
		}
	}
	// skipRest resolves every undelivered job from start on: a chunk
	// that failed part-way keeps the results it already reported.
	skipRest := func(start int, err error) {
		for k := start; k < len(jobs); k++ {
			if !delivered[k] {
				report(k, engine.Result{Job: jobs[k], Err: err, Skipped: true})
			}
		}
	}
	for start := 0; start < len(jobs); start += c.chunk {
		end := min(start+c.chunk, len(jobs))
		if err := ctx.Err(); err != nil {
			skipRest(start, err)
			return out, nil // cancellation is not a daemon failure
		}
		if err := c.submitChunk(ctx, jobs, spec, start, end, report); err != nil {
			if ctx.Err() != nil {
				skipRest(start, ctx.Err())
				return out, nil
			}
			c.mu.Lock()
			c.rs.WorkerErrors++
			c.mu.Unlock()
			err = fmt.Errorf("service: daemon %s: %w", c.base, err)
			skipRest(start, err)
			return out, err
		}
	}
	return out, nil
}

// errBackpressure marks an admission rejection (429 queue-full, or a
// draining daemon's 503 + Retry-After) internally.
type errBackpressure struct {
	wait time.Duration
	msg  string
}

func (e *errBackpressure) Error() string { return e.msg }

// errResumable marks an exchange the client may resume: skipped
// results, transport failure, mid-stream truncation, an idle-deadline
// stall, or a 5xx.
type errResumable struct{ cause error }

func (e *errResumable) Error() string { return e.cause.Error() }
func (e *errResumable) Unwrap() error { return e.cause }

// submitChunk drives jobs[start:end] to completion under spec: it
// submits the pending set, collects results, and loops — resubmitting
// only the unfinished jobs — through backpressure, stream drops and
// skipped hand-backs, until everything resolved or a retry budget runs
// out.
func (c *Client) submitChunk(ctx context.Context, jobs []engine.Job, spec *EstimateSpec, start, end int, report func(int, engine.Result)) error {
	pending := make([]int, 0, end-start)
	for k := start; k < end; k++ {
		pending = append(pending, k)
	}
	var bpWaited time.Duration // cumulative backpressure wait
	stalls := 0                // consecutive resumes without progress
	var lastCause error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		unfinished, err := c.trySubmit(ctx, jobs, spec, pending, report)
		if err == nil {
			return nil
		}
		var bp *errBackpressure
		var rs *errResumable
		switch {
		case errors.As(err, &bp):
			bpWaited += bp.wait
			if bpWaited > c.backpressureCap {
				return fmt.Errorf("backpressured for %s (cap %s) with %d jobs pending; giving up: %s",
					bpWaited.Round(time.Millisecond), c.backpressureCap, len(pending), bp.msg)
			}
			c.addRetries(len(pending))
			if err := sleepCtx(ctx, bp.wait); err != nil {
				return err
			}
			continue
		case errors.As(err, &rs):
			lastCause = rs.cause
		default:
			return err
		}
		if len(unfinished) < len(pending) {
			stalls = 0 // progress: results landed this attempt
		} else {
			stalls++
		}
		if stalls > c.resumeAttempts {
			return fmt.Errorf("giving up after %d stream resumes without progress (budget %d; %d of %d jobs unfinished): %w",
				stalls, c.resumeAttempts, len(unfinished), end-start, lastCause)
		}
		pending = unfinished
		c.addRetries(len(pending))
		backoff := min(retryBase<<min(stalls, 5), maxRetryWait)
		if err := sleepCtx(ctx, backoff); err != nil {
			return err
		}
	}
}

// trySubmit performs one submit exchange for the pending set (absolute
// indices into jobs), carrying spec as the submission's estimate spec.
// Deterministic results are reported as they stream; skipped results
// are withheld and returned as unfinished instead, alongside anything a
// dropped stream left unresolved. A nil error means every pending job
// was reported. Otherwise the error classifies the exchange:
// *errBackpressure and *errResumable are retryable, everything else is
// final.
func (c *Client) trySubmit(ctx context.Context, jobs []engine.Job, spec *EstimateSpec, pending []int, report func(int, engine.Result)) ([]int, error) {
	subset := make([]engine.Job, len(pending))
	for i, k := range pending {
		subset[i] = jobs[k]
	}
	req := newSubmitRequest(c.id, spec, subset)
	body, err := json.Marshal(req)
	if err != nil {
		return pending, fmt.Errorf("encode submit request: %w", err)
	}

	// The idle watchdog cancels the request context when no stream
	// event arrives for idleTimeout; the stalled flag distinguishes
	// that from the caller's own cancellation.
	reqCtx := ctx
	var stalled atomic.Bool
	kick := func() {}
	if c.idleTimeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		dog := time.AfterFunc(c.idleTimeout, func() {
			stalled.Store(true)
			cancel()
		})
		defer dog.Stop()
		kick = func() { dog.Reset(c.idleTimeout) }
	}
	final := make([]bool, len(pending))
	unfinished := func() []int {
		var left []int
		for i, k := range pending {
			if !final[i] {
				left = append(left, k)
			}
		}
		return left
	}
	// classify wraps a transport/decode failure: the caller's
	// cancellation is final, everything else (stall, truncation,
	// connection loss) is resumable.
	classify := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if stalled.Load() {
			return &errResumable{cause: fmt.Errorf("stream stalled: no event for %s: %w", c.idleTimeout, err)}
		}
		return &errResumable{cause: err}
	}

	hreq, err := http.NewRequestWithContext(reqCtx, http.MethodPost, c.base+SubmitPath, bytes.NewReader(body))
	if err != nil {
		return pending, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return pending, classify(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		trimmed := strings.TrimSpace(string(msg))
		retryAfter := hresp.Header.Get("Retry-After")
		switch {
		case hresp.StatusCode == http.StatusTooManyRequests,
			hresp.StatusCode == http.StatusServiceUnavailable && retryAfter != "":
			// Admission backpressure: queue full, or draining for a
			// restart. Both mean "come back shortly".
			return pending, &errBackpressure{wait: retryWait(retryAfter), msg: trimmed}
		case hresp.StatusCode >= 500:
			// A proxy blip or an injected 5xx burst: retryable.
			return pending, &errResumable{cause: fmt.Errorf("%s: %s", hresp.Status, trimmed)}
		default:
			return pending, fmt.Errorf("%s: %s", hresp.Status, trimmed)
		}
	}

	// Decode the event stream. Every accepted job must resolve before
	// EventDone; the daemon's key echoes are verified against ours, so
	// drift fails loudly in both directions. Skipped results (or a
	// dropped stream) leave the unresolved jobs for the next attempt.
	dec := json.NewDecoder(hresp.Body)
	var header Event
	if err := dec.Decode(&header); err != nil {
		return pending, classify(fmt.Errorf("decode submit header: %w", err))
	}
	kick()
	if header.Type != EventHeader {
		return pending, fmt.Errorf("submit stream opened with %q event, want %q", header.Type, EventHeader)
	}
	if err := checkProtocol(header.Protocol); err != nil {
		return pending, err
	}
	resolved := 0 // final results + skipped, this attempt
	reported := 0 // final results delivered to report
	var skipped error
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return unfinished(), classify(fmt.Errorf("submit stream dropped after %d of %d results: %w", resolved, len(pending), err))
		}
		kick()
		switch ev.Type {
		case EventResult:
			k := ev.Index
			if k < 0 || k >= len(pending) || ev.Result == nil {
				return unfinished(), fmt.Errorf("submit stream returned malformed result event (index %d of %d jobs)", k, len(pending))
			}
			if final[k] {
				return unfinished(), fmt.Errorf("submit stream resolved job %d twice", k)
			}
			if ev.Result.Key != req.Jobs[k].Key {
				return unfinished(), fmt.Errorf("submit stream returned result for key %s at position of %s", ev.Result.Key, req.Jobs[k].Key)
			}
			if ev.Skipped {
				// The daemon handed the job back unanswered (a failed
				// dispatch, an empty fleet, a drain). Not a deterministic
				// outcome, so withhold it for the resume loop rather than
				// surfacing a transient failure as a job error.
				resolved++
				skipped = fmt.Errorf("daemon handed jobs back skipped: %s", ev.Result.Err)
				continue
			}
			final[k] = true
			resolved++
			reported++
			r := engine.Result{
				Job: jobs[pending[k]], Pair: ev.Result.Pair, CacheHit: ev.Result.Cached,
				Estimated: ev.Result.Estimated, ErrorBar: ev.Result.ErrorBar,
			}
			if ev.Result.Err != "" {
				r.Err = errors.New(ev.Result.Err)
				r.Pair = fame.PairResult{}
			}
			report(pending[k], r)
		case EventDone:
			// Read the body to its end (the chunked trailer), so the
			// transport reuses the connection for the next submission
			// instead of closing it. Best effort: a failed read only
			// costs that reuse.
			_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 512))
			if ev.Err != "" {
				return unfinished(), fmt.Errorf("daemon reported: %s", ev.Err)
			}
			if resolved != len(pending) {
				return unfinished(), fmt.Errorf("submit stream closed with %d of %d results", resolved, len(pending))
			}
			c.mu.Lock()
			c.rs.Jobs += reported
			c.mu.Unlock()
			if skipped != nil {
				return unfinished(), &errResumable{cause: skipped}
			}
			return nil, nil
		default:
			return unfinished(), fmt.Errorf("submit stream sent unknown event type %q", ev.Type)
		}
	}
}

// RegisterWorker announces the worker at workerAddr to the daemon. The
// daemon health-checks the worker before admitting it; re-registering
// is the heartbeat that readmits a worker a failed run marked down, so
// workers call this periodically. Added reports whether the fleet grew
// (false on a heartbeat).
func (c *Client) RegisterWorker(ctx context.Context, workerAddr string) (added bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := json.Marshal(RegisterRequest{Protocol: ProtocolVersion, Addr: workerAddr})
	if err != nil {
		return false, fmt.Errorf("service: encode register request: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, registerTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+RegisterPath, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return false, fmt.Errorf("service: daemon %s unreachable: %w", c.base, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return false, fmt.Errorf("service: register with %s: %s: %s", c.base, hresp.Status, strings.TrimSpace(string(msg)))
	}
	var rr RegisterResponse
	if err := json.NewDecoder(hresp.Body).Decode(&rr); err != nil {
		return false, fmt.Errorf("service: register with %s: %w", c.base, err)
	}
	if err := checkProtocol(rr.Protocol); err != nil {
		return false, err
	}
	return rr.Added, nil
}

// registerRetryBase is the first pause after a refused first
// registration; later pauses double, up to the heartbeat.
const registerRetryBase = 100 * time.Millisecond

// RegisterWorker keeps the worker at workerAddr registered with the
// daemon at daemonAddr (host:port or http:// URL) until ctx is done; see
// Client.RegisterWorker. Until the first registration succeeds it
// retries from registerRetryBase, doubling up to the heartbeat, so a
// worker started together with its daemon joins as soon as the daemon
// is up; after that it re-registers every heartbeat, which readmits the
// worker if a failed run marked it down. Failures and the joining
// registration are reported through logf.
func RegisterWorker(ctx context.Context, daemonAddr, workerAddr string, heartbeat time.Duration, logf func(format string, args ...any)) {
	c := NewClient(daemonAddr)
	pause := min(registerRetryBase, heartbeat)
	for {
		added, err := c.RegisterWorker(ctx, workerAddr)
		if ctx.Err() != nil {
			return
		}
		switch {
		case err != nil:
			logf("register with %s: %v (will retry)", daemonAddr, err)
		case added:
			logf("registered %s with daemon %s", workerAddr, daemonAddr)
		}
		if err == nil {
			pause = heartbeat // joined: from now on, one heartbeat apart
		}
		if sleepCtx(ctx, pause) != nil {
			return
		}
		pause = min(2*pause, heartbeat)
	}
}

// retryWait parses a Retry-After header into a bounded pause.
func retryWait(h string) time.Duration {
	wait := retryBase
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	}
	return min(wait, maxRetryWait)
}

// sleepCtx pauses for d or until ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
