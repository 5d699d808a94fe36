// Package chaos is the deterministic fault-injection harness for the
// serving stack: a seeded fault plan drives decorators wrapped around
// the stack's existing seams — an engine.Backend's RunProgress (worker
// crash mid-batch, straggler, skip-without-error), an http.RoundTripper and
// server middleware (connection reset, mid-stream truncation, delayed
// responses, 5xx bursts), and a cachestore put hook (full disk, torn
// writes) — so resilience is tested systematically instead of
// anecdotally.
//
// Determinism is the point: every fault decision is a pure function of
// (plan seed, rule index, per-rule match ordinal), not of wall clock or
// a shared RNG stream, so a failing schedule replays exactly from its
// seed even when goroutine interleavings differ between runs. The soak
// test in this package drives clients, workers and the daemon through a
// seeded schedule and asserts the merged results are byte-identical to
// a fault-free run — the repo's determinism contract, under fire.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// Op names the seam a rule attaches to.
type Op string

const (
	// OpRun matches one Backend.RunProgress call (target: the
	// wrapped backend's Name).
	OpRun Op = "run"
	// OpHTTP matches one HTTP request, on the client RoundTripper or
	// the server middleware (target: the request's URL path).
	OpHTTP Op = "http"
	// OpPut matches one cachestore entry write (target: the entry key
	// in hex).
	OpPut Op = "put"
)

// Fault names what happens when a rule fires.
type Fault string

const (
	// FaultCrash (OpRun) executes half the batch, then fails the rest
	// as skipped with a backend-level error — a worker dying mid-batch.
	FaultCrash Fault = "crash"
	// FaultSkip (OpRun) executes half the batch and returns the rest
	// skipped *without* a backend error — work silently not attempted.
	FaultSkip Fault = "skip"
	// FaultSlow (OpRun, OpHTTP) delays the call by Delay — a straggler.
	FaultSlow Fault = "slow"
	// FaultConnReset (OpHTTP) fails the exchange at the transport:
	// the RoundTripper errors without sending, the middleware aborts
	// the connection mid-handling.
	FaultConnReset Fault = "conn-reset"
	// FaultTruncate (OpHTTP) cuts the response body after Bytes bytes —
	// a mid-NDJSON-stream disconnect.
	FaultTruncate Fault = "truncate"
	// FaultHTTP500 (OpHTTP) replaces the response with a 500 (pair
	// with Count for a burst).
	FaultHTTP500 Fault = "http-500"
	// FaultENOSPC (OpPut) fails the entry write as a full disk would.
	FaultENOSPC Fault = "enospc"
	// FaultTornWrite (OpPut) persists only a prefix of the entry — a
	// write torn by power loss; the store's checksum must catch it.
	FaultTornWrite Fault = "torn-write"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "50ms", so plan files stay readable.
type Duration time.Duration

// Std converts to the standard library type.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("chaos: duration must be a string like \"50ms\" or integer nanoseconds, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Rule arms one fault at one seam. Matching is by Op plus an optional
// Target substring; firing is gated by After (skip the first matches),
// Count (fire at most this many times) and P (probability per match).
type Rule struct {
	Op     Op     `json:"op"`
	Target string `json:"target,omitempty"` // substring of backend name / URL path / entry key; empty matches all
	Fault  Fault  `json:"fault"`
	// P is the per-match firing probability in (0,1); 0 (and >= 1)
	// means every match past After fires — the deterministic form used
	// for counted schedules.
	P float64 `json:"p,omitempty"`
	// After skips the first After matches before the rule may fire.
	After int `json:"after,omitempty"`
	// Count caps total firings (0 = unlimited).
	Count int `json:"count,omitempty"`
	// Delay is the stall length for FaultSlow.
	Delay Duration `json:"delay,omitempty"`
	// Bytes is how much body/entry survives FaultTruncate/FaultTornWrite
	// (0 picks a fault-specific default).
	Bytes int64 `json:"bytes,omitempty"`
}

// Plan is one reproducible fault schedule. The zero plan injects
// nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate rejects rules with unknown ops or faults, and faults armed
// on a seam that cannot express them.
func (p Plan) Validate() error {
	valid := map[Op][]Fault{
		OpRun:  {FaultCrash, FaultSkip, FaultSlow},
		OpHTTP: {FaultConnReset, FaultTruncate, FaultHTTP500, FaultSlow},
		OpPut:  {FaultENOSPC, FaultTornWrite},
	}
	for i, r := range p.Rules {
		faults, ok := valid[r.Op]
		if !ok {
			return fmt.Errorf("chaos: rule %d: unknown op %q", i, r.Op)
		}
		found := false
		for _, f := range faults {
			if f == r.Fault {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("chaos: rule %d: fault %q cannot fire on op %q", i, r.Fault, r.Op)
		}
		if r.Fault == FaultSlow && r.Delay <= 0 {
			return fmt.Errorf("chaos: rule %d: %q needs a positive delay", i, FaultSlow)
		}
	}
	return nil
}

// Load reads a JSON plan file and validates it.
func Load(path string) (Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("chaos: load plan: %w", err)
	}
	var p Plan
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("chaos: load plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("chaos: plan %s: %w", path, err)
	}
	return p, nil
}

// Injector makes the fault decisions for one plan. One injector may be
// shared by every decorator in a process (all methods are safe for
// concurrent use); decisions for each rule depend only on the plan seed
// and that rule's own match ordinal, so two rules never perturb each
// other's schedules and concurrent seams stay independently
// reproducible.
type Injector struct {
	plan Plan

	mu      sync.Mutex
	matched []uint64 // per-rule match ordinal (next match's n)
	fired   []int    // per-rule firings so far
}

// NewInjector builds an injector for the plan. It panics on an invalid
// plan (Load has already validated file-loaded ones).
func NewInjector(p Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		plan:    p,
		matched: make([]uint64, len(p.Rules)),
		fired:   make([]int, len(p.Rules)),
	}
}

// Fired reports how many times rule r has fired.
func (in *Injector) Fired(r int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r < 0 || r >= len(in.fired) {
		return 0
	}
	return in.fired[r]
}

// TotalFired reports firings across every rule.
func (in *Injector) TotalFired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.fired {
		n += f
	}
	return n
}

// decision is one armed fault handed to a decorator.
type decision struct {
	rule  int
	fault Fault
	delay time.Duration
	bytes int64
}

// decide consumes one match at the seam and returns the fault to
// inject, or nil to pass through. Every rule matching (op, target)
// advances its own ordinal whether or not it fires; the first rule that
// fires wins the call.
func (in *Injector) decide(op Op, target string) *decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var hit *decision
	for r := range in.plan.Rules {
		rule := &in.plan.Rules[r]
		if rule.Op != op {
			continue
		}
		if rule.Target != "" && !strings.Contains(target, rule.Target) {
			continue
		}
		n := in.matched[r]
		in.matched[r]++
		if hit != nil {
			continue // a prior rule won this call; ordinal still consumed
		}
		if n < uint64(rule.After) {
			continue
		}
		if rule.Count > 0 && in.fired[r] >= rule.Count {
			continue
		}
		if rule.P > 0 && rule.P < 1 && chance(in.plan.Seed, r, n) >= rule.P {
			continue
		}
		in.fired[r]++
		hit = &decision{rule: r, fault: rule.Fault, delay: rule.Delay.Std(), bytes: rule.Bytes}
	}
	return hit
}

// chance maps (seed, rule, match ordinal) to a uniform [0,1) value via
// a splitmix64-style mix — stateless, so the decision for a rule's nth
// match is identical whatever order concurrent seams reach it.
func chance(seed int64, rule int, n uint64) float64 {
	x := uint64(seed)
	x ^= uint64(rule+1) * 0x9E3779B97F4A7C15
	x += (n + 1) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
