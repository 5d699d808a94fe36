package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"power5prio/internal/engine"
	"power5prio/internal/remote"
)

// ErrQueueFull is the admission-control rejection: the submission
// would push the waiting queue past its bound. Clients should back off
// and retry (the HTTP layer maps it to 429 with Retry-After).
var ErrQueueFull = errors.New("service: queue full")

// ErrClosed rejects submissions to a daemon that has shut down.
var ErrClosed = errors.New("service: daemon closed")

// ErrDraining rejects submissions to a daemon draining for shutdown.
// The HTTP layer maps it to 503 with Retry-After: unlike ErrClosed it
// is transient — a successor daemon (or a restart) will accept the
// work, so clients back off and retry instead of failing.
var ErrDraining = errors.New("service: daemon draining for shutdown")

// maxClientRows caps the named rows of the per-tenant breakdown. Client
// IDs are untrusted, so an ID first seen past the cap shares one
// aggregate row instead of growing the table for the daemon's lifetime.
const maxClientRows = 1024

// otherClients names the aggregate row.
const otherClients = "(other clients)"

// Config tunes the daemon. The zero value selects the defaults.
type Config struct {
	// MaxQueue bounds the jobs admitted but not yet dispatched
	// (default 1024). Submissions that would overflow it are rejected
	// with ErrQueueFull — explicit backpressure instead of unbounded
	// buffering.
	MaxQueue int
	// Weight is the number of jobs one tenant contributes per
	// round-robin turn (default 8): small enough that an interactive
	// tenant reaches the front within one batch, large enough to keep
	// dispatch batches dense.
	Weight int
	// BatchMax caps one dispatch batch (default 32), so a drained
	// queue turns into engine batches of bounded latency.
	BatchMax int
	// Dispatchers is the number of concurrent dispatch loops (default
	// 2): while one batch simulates, another forms — an interactive
	// job never waits for a bulk batch to finish.
	Dispatchers int
	// JobTimeout bounds one job's execution in the dispatch path: a
	// batch of n jobs runs under a deadline of n×JobTimeout, so one
	// wedged job (or a hung worker) cannot pin a dispatcher forever —
	// the batch's unfinished jobs are handed back skipped for the client
	// to resubmit. 0 disables the deadline.
	JobTimeout time.Duration
	// Logf, when non-nil, receives one line per notable daemon event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.Weight <= 0 {
		c.Weight = 8
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 2
	}
	return c
}

// item is one queued job plus its delivery route.
type item struct {
	job    engine.Job
	mode   engine.EstimateMode // tier-0 policy resolved at admission
	idx    int                 // position within the submission
	client string              // tenant queue the item enters
	sub    *submission
}

// indexed is one delivered outcome at its submission index.
type indexed struct {
	idx int
	res engine.Result
}

// submission is one client batch in flight through the queue. Its
// channel is buffered to the job count, so dispatchers never block on
// a slow or departed reader — a disconnected client's jobs still run
// and warm the cache. Each index receives exactly one result: the
// dispatch's outcome, or a skipped hand-back when a drain flushed it.
type submission struct {
	ch chan indexed
}

func (s *submission) deliver(idx int, r engine.Result) {
	s.ch <- indexed{idx: idx, res: r}
}

// tenantQueue is one client's FIFO of queued items.
type tenantQueue struct {
	items []item
}

// Daemon schedules submissions from many clients onto one engine. The
// engine brings the cache tiers and cross-batch singleflight; the
// daemon adds admission control and weighted round-robin fairness
// across tenants, and (when executing on a ShardedBackend fleet)
// runtime worker registration.
type Daemon struct {
	cfg   Config
	eng   *engine.Engine
	fleet *remote.ShardedBackend // nil when the engine runs a local pool

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string]*tenantQueue
	order    []string // round-robin ring of tenants with queued work
	rrPos    int
	depth    int // total queued jobs
	rejected int64
	drained  int64
	requeued int64
	clients  map[string]*ClientStats // per-tenant delivery breakdown
	draining bool
	closed   bool
}

// New builds a daemon over an engine. fleet may be nil (local
// execution); when set it must be the engine's backend — it is what
// RegisterWorker grows and Stats reports worker membership from.
func New(eng *engine.Engine, fleet *remote.ShardedBackend, cfg Config) *Daemon {
	d := &Daemon{
		cfg:     cfg.withDefaults(),
		eng:     eng,
		fleet:   fleet,
		queues:  make(map[string]*tenantQueue),
		clients: make(map[string]*ClientStats),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// enqueue admits a submission's jobs to the client's tenant queue, or
// rejects the whole submission (admission is all-or-nothing so a
// client never holds a half-queued batch across a 429). mode is the
// tier-0 policy every job of the submission dispatches under.
func (d *Daemon) enqueue(client string, jobs []engine.Job, mode engine.EstimateMode) (*submission, error) {
	if client == "" {
		client = "anonymous"
	}
	sub := &submission{ch: make(chan indexed, len(jobs))}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if d.draining {
		return nil, ErrDraining
	}
	if d.depth+len(jobs) > d.cfg.MaxQueue {
		d.rejected++
		return nil, fmt.Errorf("%w: %d queued + %d submitted exceeds the %d-job bound",
			ErrQueueFull, d.depth, len(jobs), d.cfg.MaxQueue)
	}
	if len(jobs) == 0 {
		// Nothing to queue: a tenant entry would only leave the ring
		// once other work flows, and client IDs are untrusted.
		return sub, nil
	}
	q := d.queues[client]
	if q == nil {
		q = &tenantQueue{}
		d.queues[client] = q
		d.order = append(d.order, client)
	}
	for i, j := range jobs {
		q.items = append(q.items, item{job: j, mode: mode, idx: i, client: client, sub: sub})
	}
	d.depth += len(jobs)
	d.cond.Broadcast()
	return sub, nil
}

// nextBatch blocks until work is queued, then drains up to BatchMax
// jobs by weighted round-robin: each tenant in the ring contributes at
// most Weight jobs per turn, so a bulk sweep and an interactive query
// share every batch. Returns nil when the daemon is closed (or ctx is
// cancelled) with nothing queued.
func (d *Daemon) nextBatch(ctx context.Context) []item {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.depth == 0 && !d.closed && ctx.Err() == nil {
		d.cond.Wait()
	}
	if d.depth == 0 {
		return nil
	}
	var batch []item
	for len(batch) < d.cfg.BatchMax && d.depth > 0 {
		if d.rrPos >= len(d.order) {
			d.rrPos = 0
		}
		cl := d.order[d.rrPos]
		q := d.queues[cl]
		n := min(d.cfg.Weight, len(q.items), d.cfg.BatchMax-len(batch))
		batch = append(batch, q.items[:n]...)
		q.items = q.items[n:]
		d.depth -= n
		if len(q.items) == 0 {
			// Drained tenants leave the ring so the tenant table stays
			// proportional to *live* clients, not lifetime clients.
			delete(d.queues, cl)
			d.order = append(d.order[:d.rrPos], d.order[d.rrPos+1:]...)
		} else {
			d.rrPos++
		}
	}
	return batch
}

// Run executes the dispatch loops until ctx is cancelled and the queue
// has drained. It blocks; a daemon serves batches only while Run is
// running. Give Run a context that outlives the shutdown signal (p5d
// does): the graceful path is Drain — hand queued work back skipped,
// finish in-flight dispatches — then Close; cancelling Run's ctx
// mid-dispatch instead resolves in-flight work as Skipped too.
func (d *Daemon) Run(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // wake nextBatch waiters when the daemon context dies
		select {
		case <-ctx.Done():
			d.cond.Broadcast()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < d.cfg.Dispatchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch := d.nextBatch(ctx)
				if batch == nil {
					return
				}
				d.dispatch(ctx, batch)
			}
		}()
	}
	wg.Wait()
}

// dispatch runs one batch through the engine once, delivering every
// result as it lands. A skipped result (backend crash, injected skip,
// deadline, empty fleet) is handed back as it is: the client that asked
// is the one retry owner, and it resubmits the job. Each item carries
// its own tier-0 mode, so one batch can mix estimate-accepting and
// exact-only tenants without splitting.
func (d *Daemon) dispatch(ctx context.Context, batch []item) {
	jobs := make([]engine.Job, len(batch))
	modes := make([]engine.EstimateMode, len(batch))
	for i, it := range batch {
		jobs[i] = it.job
		modes[i] = it.mode
	}
	// The dispatch runs under the daemon context, not any client's: a
	// disconnected client must not cancel work other clients may be
	// coalesced onto, and completed results warm the shared cache
	// either way. JobTimeout adds a batch-scaled deadline on top so a
	// wedged job frees this dispatcher after a bounded wait.
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if d.cfg.JobTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, time.Duration(len(batch))*d.cfg.JobTimeout)
	}
	defer cancel()
	skipped := 0
	d.eng.RunEstimate(runCtx, jobs, modes, func(i int, r engine.Result) {
		if r.Skipped {
			skipped++
			d.mu.Lock()
			d.requeued++
			d.mu.Unlock()
		}
		batch[i].sub.deliver(batch[i].idx, r)
		d.countResult(batch[i].client, r)
	})
	if skipped > 0 {
		d.logf("service: handed %d of %d dispatched jobs back skipped for resubmission", skipped, len(batch))
	}
}

// clientStats returns (creating if needed) the named tenant's counter
// row, or the aggregate row once maxClientRows tenants have one. The
// caller must hold d.mu.
func (d *Daemon) clientStats(client string) *ClientStats {
	cs := d.clients[client]
	if cs == nil && len(d.clients) >= maxClientRows {
		client = otherClients
		cs = d.clients[client]
	}
	if cs == nil {
		cs = &ClientStats{Client: client}
		d.clients[client] = cs
	}
	return cs
}

// countResult classifies one delivered result into its tenant's tier
// breakdown: which answer tier produced it, from the client's point of
// view. The order matters — an estimate is never a cache hit, and a
// coalesced join is counted as a join even though the engine also
// flags it CacheHit (the published outcome it read *is* the cache).
func (d *Daemon) countResult(client string, r engine.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := d.clientStats(client)
	cs.Jobs++
	switch {
	case r.Err != nil || r.Skipped:
		cs.Errors++
	case r.Estimated:
		cs.Estimated++
	case r.Coalesced:
		cs.Coalesced++
	case r.CacheHit:
		cs.StoreHits++
	default:
		cs.Simulated++
	}
}

// Drain moves the daemon into shutdown: admission stops (ErrDraining,
// which the HTTP layer maps to 503 + Retry-After), and every queued
// item is handed back to its submission as a skipped result carrying
// ErrDraining, so the open streams end with done and their clients
// resubmit exactly those jobs, typically to this daemon's successor.
// In-flight dispatches are not interrupted; they deliver normally.
// Idempotent; Close still follows to stop the dispatch loops.
func (d *Daemon) Drain() {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return
	}
	d.draining = true
	var flushed []item
	for _, q := range d.queues {
		flushed = append(flushed, q.items...)
	}
	d.queues = make(map[string]*tenantQueue)
	d.order = nil
	d.rrPos = 0
	d.depth = 0
	d.drained += int64(len(flushed))
	for _, it := range flushed {
		d.clientStats(it.client).Drained++
	}
	d.mu.Unlock()
	d.cond.Broadcast()
	for _, it := range flushed {
		it.sub.deliver(it.idx, engine.Result{Job: it.job, Err: ErrDraining, Skipped: true})
	}
	if len(flushed) > 0 {
		d.logf("service: drain: handed %d queued jobs back skipped", len(flushed))
	}
}

// Close rejects future submissions and wakes idle dispatchers. Jobs
// already queued still dispatch (Run drains them).
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// RegisterWorker health-checks the worker at addr and adds it to the
// fleet; re-registering an existing worker marks it up again if a
// failed run had marked it down (this is the heartbeat path). It
// reports whether the fleet grew.
func (d *Daemon) RegisterWorker(ctx context.Context, addr string) (added bool, err error) {
	if d.fleet == nil {
		return false, errors.New("service: daemon executes locally; worker registration needs a fleet backend")
	}
	w := remote.NewHTTPBackend(addr)
	if err := w.Healthy(ctx); err != nil {
		return false, fmt.Errorf("service: refusing to register %s: %w", addr, err)
	}
	added = d.fleet.AddWorker(w)
	if added {
		d.logf("service: worker %s joined the fleet", addr)
	}
	return added, nil
}

// Stats snapshots the daemon: queue state, the engine's lifetime
// cache-tier counters, the per-tenant delivery breakdown, and which
// workers are down when running on a fleet.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	st := Stats{
		Protocol:   ProtocolVersion,
		QueueDepth: d.depth,
		Tenants:    len(d.order),
		Rejected:   d.rejected,
		Drained:    d.drained,
		Requeued:   d.requeued,
	}
	names := make([]string, 0, len(d.clients))
	for name := range d.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Clients = append(st.Clients, *d.clients[name])
	}
	d.mu.Unlock()
	es := d.eng.Stats()
	st.Submitted = es.Submitted
	st.Simulated = es.Simulated
	st.Hits = es.Hits
	st.Coalesced = es.Coalesced
	st.DiskHits = es.DiskHits
	st.EstimatedHits = es.EstimatedHits
	st.EstimatedEscalated = es.EstimatedEscalated
	if d.fleet != nil {
		st.Workers = d.fleet.WorkerStates()
	}
	return st
}
