package engine

import "context"

// Cross-batch singleflight.
//
// The in-memory and disk cache tiers dedup jobs that have *completed*;
// they do nothing for jobs currently in the air. A long-running service
// dispatches many concurrent batches through one engine, and N clients
// asking for the same uncached job would start N identical simulations
// — the expensive kind of waste the engine exists to prevent. The
// flight table closes that window: the first batch to see an uncached
// job owns its flight and runs it, and every concurrent batch
// submitting the same job joins the flight and waits instead.
//
// Ownership rule: each owner — a batch's candidate or a claimer —
// completes only its own flight, never whatever flight is registered
// for the job by then, and a claimer registers its flight only when
// none is registered for the job. So every registered flight has
// exactly one owner, which closes it exactly once.
//
// The owner completes a flight (closes done, unregisters it) inside
// the same e.mu critical section that publishes the result to the
// memory cache, so a woken waiter re-checking the cache under the lock
// always observes the published result — or its absence, which means
// the owner abandoned the job (cancelled batch, failed backend;
// Skipped results are never cached) or answered it with an estimate
// from the backend's tier 0 (never cached either, and not for a waiter
// whose mode may reject it). An uncached outcome must not fail the
// waiters coalesced onto it: each waiter either joins the replacement
// flight some other batch has registered by then, or claims the job
// and runs it itself, under its own estimate mode.

// flight is one in-progress computation of a job, shared across
// concurrent Run batches.
type flight struct {
	done chan struct{}
}

// joinWait records one batch index waiting on another batch's flight.
type joinWait struct {
	idx int
	fl  *flight
}

// maxJoinRetries bounds how many successive abandoned flights a waiter
// re-joins before claiming the job itself, so a pathological chain of
// cancelled owners cannot defer a live waiter forever.
const maxJoinRetries = 4

// completeLocked closes fl (waking its waiters) and unregisters it if
// it is still j's registered flight. The caller must hold e.mu, must
// own fl (the ownership rule above) and must have published j's
// outcome — or decided not to — in the same critical section.
func (e *Engine) completeLocked(j Job, fl *flight) {
	close(fl.done)
	if e.inflight[j] == fl {
		delete(e.inflight, j)
	}
}

// awaitFlight waits for another batch's in-flight computation of j,
// then serves the cached outcome through deliver (which delivers to the
// waiter's batch index and its in-batch followers). If the owner
// abandoned the job, or answered it with an estimate (never cached),
// the waiter re-joins the replacement flight when one exists, or claims
// the job and executes it itself, sending modes (the waiter's own, as
// execute takes them) to the backend. A claimer past maxJoinRetries
// runs the job without registering its flight when a live one is
// registered, leaving that flight to its own owner.
func (e *Engine) awaitFlight(ctx context.Context, j Job, modes []EstimateMode, fl *flight, nFollowers int, deliver func(Result)) {
	for attempt := 0; ; attempt++ {
		select {
		case <-fl.done:
		case <-ctx.Done():
			e.mu.Lock()
			e.stats.Skipped += 1 + nFollowers
			e.mu.Unlock()
			deliver(Result{Job: j, Err: ctx.Err(), Skipped: true})
			return
		}
		e.mu.Lock()
		if oc, ok := e.cache[j]; ok {
			e.stats.Hits += 1 + nFollowers
			e.mu.Unlock()
			deliver(Result{Job: j, Pair: oc.pair, Err: oc.err, CacheHit: true, Coalesced: true})
			return
		}
		// The owner abandoned the job, or estimated it, without caching
		// it.
		live, ok := e.inflight[j]
		if ok && attempt < maxJoinRetries {
			fl = live
			e.mu.Unlock()
			continue
		}
		mine := &flight{done: make(chan struct{})}
		if !ok {
			e.inflight[j] = mine
		}
		e.mu.Unlock()
		e.execute(ctx, []Job{j}, modes, []*flight{mine}, []int{nFollowers}, func(_ int, r Result) { deliver(r) })
		return
	}
}
