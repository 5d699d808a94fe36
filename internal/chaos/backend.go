package chaos

import (
	"context"
	"fmt"
	"time"

	"power5prio/internal/engine"
)

// Backend wraps an engine.Backend with OpRun faults: crash-mid-batch,
// skip-without-error and straggler delays. It preserves the backend
// contract — one result per job in order, never-attempted jobs carry
// Skipped — so everything above (engine caching, the daemon's skipped
// hand-back, client resubmission) sees exactly the failures a real fleet produces.
type Backend struct {
	inner engine.Backend
	inj   *Injector
}

// WrapBackend decorates a backend with the injector's OpRun rules
// (matched against the inner backend's name).
func WrapBackend(b engine.Backend, inj *Injector) *Backend {
	return &Backend{inner: b, inj: inj}
}

// Name identifies the wrapper in diagnostics.
func (b *Backend) Name() string { return "chaos(" + b.inner.Name() + ")" }

// RunProgress consults the plan once per batch, then executes through
// the wrapped backend — whole, delayed, or cut short mid-batch.
func (b *Backend) RunProgress(ctx context.Context, jobs []engine.Job, done func(i int, r engine.Result)) ([]engine.Result, error) {
	d := b.inj.decide(OpRun, b.inner.Name())
	if d == nil {
		return b.inner.RunProgress(ctx, jobs, done)
	}
	switch d.fault {
	case FaultSlow:
		select {
		case <-time.After(d.delay):
		case <-ctx.Done():
			out := make([]engine.Result, len(jobs))
			for i, j := range jobs {
				out[i] = engine.Result{Job: j, Err: ctx.Err(), Skipped: true}
				if done != nil {
					done(i, out[i])
				}
			}
			return out, nil
		}
		return b.inner.RunProgress(ctx, jobs, done)
	case FaultCrash, FaultSkip:
		// Execute the leading half, strand the rest — the shape of a
		// worker dying (crash: with a backend-level error) or silently
		// dropping work (skip: no error at all).
		n := len(jobs) / 2
		prefix, innerErr := b.inner.RunProgress(ctx, jobs[:n], done)
		var cause error
		if d.fault == FaultCrash {
			cause = fmt.Errorf("chaos: injected worker crash after %d of %d jobs (rule %d)", n, len(jobs), d.rule)
		} else {
			cause = fmt.Errorf("chaos: injected skip of %d of %d jobs (rule %d)", len(jobs)-n, len(jobs), d.rule)
		}
		out := make([]engine.Result, len(jobs))
		copy(out, prefix)
		for k := n; k < len(jobs); k++ {
			out[k] = engine.Result{Job: jobs[k], Err: cause, Skipped: true}
			if done != nil {
				done(k, out[k])
			}
		}
		if innerErr != nil {
			return out, innerErr
		}
		if d.fault == FaultCrash {
			return out, cause
		}
		return out, nil
	default:
		return b.inner.RunProgress(ctx, jobs, done)
	}
}
