// Package service is the long-running measurement daemon behind
// cmd/p5d: many concurrent clients stream job submissions to one
// shared engine, instead of each process owning a private batch.
//
// The daemon exists for the traffic shape a batch RPC cannot serve:
// many tenants asking overlapping questions at once. It adds, in front
// of the engine/cachestore/fleet stack it reuses unchanged:
//
//   - Admission control: the waiting queue is bounded; a submission
//     that would overflow it is rejected with an explicit 429-style
//     error (and Retry-After over HTTP) rather than buffered without
//     limit.
//   - Per-tenant fairness: queued jobs are drained by weighted
//     round-robin across client IDs, so one tenant's bulk sweep cannot
//     starve another's interactive query — the interactive job enters
//     the next dispatch batch.
//   - Cross-client deduplication: dispatch batches run through one
//     engine, whose cache tiers and cross-batch singleflight
//     (engine/flight.go) collapse identical jobs from different
//     clients into one simulation.
//   - Worker registration: workers announce themselves at runtime and
//     join the ShardedBackend fleet (heartbeats re-register, marking
//     a worker up again after a failed run), so the fleet scales
//     without restarting the daemon.
//
// The daemon dispatches each job once. A job that comes back skipped
// (a worker crash, an empty fleet, a per-job deadline, a drain) is
// handed back to its client as a skipped result, and the client is
// the one retry owner: every result is a pure function of its job, so
// resubmitting is always safe, and only the client knows whether it
// still needs the answer.
//
// The wire protocol, p5queue/v5, layers on p5remote/v1. A submission
// sends the fields its jobs share (privilege, iteration scale, chip and
// FAME options: one Profile for a whole priority sweep) once, and each
// job as a row of what varies: its two workloads and priority levels,
// the index of its profile, and its JobKey. The daemon rebuilds every
// job from its row and profile and recomputes the key, so schema drift
// between binaries fails loudly. Results travel as remote.WireResult.
// A submission's response is a stream of newline-delimited JSON events
// — header, one result per job as it lands, then a trailer — so a
// client sees cache hits immediately while novel jobs simulate. A
// result event flagged skipped means "not answered, resubmit": a raw
// client must submit those jobs again, possibly to the daemon's
// successor after a restart. service.Client does so transparently,
// riding the warm cache.
package service

import (
	"fmt"
	"math"

	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/prio"
	"power5prio/internal/remote"
	"power5prio/internal/workload"
)

// ProtocolVersion names the queue protocol. Client and daemon must
// match exactly; either side rejects a mismatch.
//
// v2 added the terminal "drained" stream event (a daemon draining for
// shutdown ends each open stream with the unfinished job keys instead
// of resolving them as skipped) — a new event type is an incompatible
// stream change, hence the bump.
//
// v3 added tier-0 analytical estimation to the exchange: SubmitRequest
// gained the optional Estimate spec, results may come back flagged
// Estimated with an ErrorBar, and Stats grew the estimated counters
// plus the per-client tier breakdown. A v2 client cannot see the
// Estimated flag, so a daemon serving it analytical answers would
// silently degrade that client's data — hence the bump rather than an
// additive field.
//
// v4 removed the "drained" event: a drain hands queued jobs back as
// skipped results followed by done, and the daemon no longer retries
// skipped jobs itself. A v3 client would wait for a drained event that
// never comes and take a daemon-side retry for granted, hence the bump.
//
// v5 replaced the submit body's remote.WireJob list with a Profile table
// plus JobRows, so a sweep's shared chip and FAME options travel once
// instead of once per job. A v4 body has no profiles, hence the bump.
const ProtocolVersion = "p5queue/v5"

// Endpoint paths served by the daemon.
const (
	// SubmitPath enqueues a job batch and streams its results (POST,
	// SubmitRequest -> NDJSON Event stream).
	SubmitPath = "/v1/submit"
	// StatsPath reports queue, cache-tier and per-worker membership
	// state (GET -> Stats).
	StatsPath = "/v1/stats"
	// RegisterPath adds a worker to the fleet (POST, RegisterRequest ->
	// RegisterResponse). Re-registering is the worker heartbeat.
	RegisterPath = "/v1/register"
	// HealthPath reports liveness (GET -> Health).
	HealthPath = "/v1/health"
)

// SubmitRequest is the body of a SubmitPath POST. Client identifies
// the tenant for fair scheduling; submissions with the same Client
// share one round-robin turn. Estimate, when present, overrides the
// daemon's default tier-0 policy for this submission's jobs; absent
// means "whatever the daemon was started with". Each of Jobs names
// its Profile by index, and a table may not hold more profiles than
// there are jobs.
type SubmitRequest struct {
	Protocol string        `json:"protocol"`
	Client   string        `json:"client"`
	Estimate *EstimateSpec `json:"estimate,omitempty"`
	Profiles []Profile     `json:"profiles"`
	Jobs     []JobRow      `json:"jobs"`
}

// Profile is the part of an engine.Job that a sweep's jobs share.
type Profile struct {
	Privilege prio.Privilege `json:"privilege"`
	IterScale float64        `json:"iter_scale"`
	Chip      core.Config    `json:"chip"`
	Fame      fame.Options   `json:"fame"`
}

// JobRow is one job of a submission: its JobKey, the index of its
// Profile in the submission's table, and the fields that vary across a
// sweep.
type JobRow struct {
	Key       string       `json:"key"`
	Profile   int          `json:"profile"`
	Primary   workload.Ref `json:"primary"`
	Secondary workload.Ref `json:"secondary"`
	PrioP     prio.Level   `json:"prio_p"`
	PrioS     prio.Level   `json:"prio_s"`
}

// newSubmitRequest encodes jobs as a submission: each job's shared
// fields join the profile table unless an earlier job's profile is the
// same, and each job becomes a row keyed by its JobKey. A linear scan
// of the table suffices: a submission almost always has one profile.
func newSubmitRequest(client string, spec *EstimateSpec, jobs []engine.Job) SubmitRequest {
	req := SubmitRequest{Protocol: ProtocolVersion, Client: client, Estimate: spec, Jobs: make([]JobRow, len(jobs))}
	for i, j := range jobs {
		p := Profile{Privilege: j.Privilege, IterScale: j.IterScale, Chip: j.Chip, Fame: j.Fame}
		idx := len(req.Profiles)
		for k := range req.Profiles {
			if sameProfile(req.Profiles[k], p) {
				idx = k
				break
			}
		}
		if idx == len(req.Profiles) {
			req.Profiles = append(req.Profiles, p)
		}
		req.Jobs[i] = JobRow{
			Key: engine.JobKey(j).String(), Profile: idx,
			Primary: j.Primary, Secondary: j.Secondary, PrioP: j.PrioP, PrioS: j.PrioS,
		}
	}
	return req
}

// sameProfile is == made exact for the JobKey, which hashes float
// bits: 0 and -0 compare equal but key differently. IterScale and
// Fame.MAIV are a profile's only float fields.
func sameProfile(a, b Profile) bool {
	return a == b &&
		math.Float64bits(a.IterScale) == math.Float64bits(b.IterScale) &&
		math.Float64bits(a.Fame.MAIV) == math.Float64bits(b.Fame.MAIV)
}

// job rebuilds the engine.Job of row i, or fails when the row names a
// profile the table does not have.
func (r *SubmitRequest) job(i int) (engine.Job, error) {
	row := r.Jobs[i]
	if row.Profile < 0 || row.Profile >= len(r.Profiles) {
		return engine.Job{}, fmt.Errorf("service: job %d names profile %d of a %d-profile table", i, row.Profile, len(r.Profiles))
	}
	p := r.Profiles[row.Profile]
	return engine.Job{
		Primary: row.Primary, Secondary: row.Secondary, PrioP: row.PrioP, PrioS: row.PrioS,
		Privilege: p.Privilege, IterScale: p.IterScale, Chip: p.Chip, Fame: p.Fame,
	}, nil
}

// EstimateSpec is a submission's tier-0 policy. Always serves every
// estimate the daemon's model offers regardless of error bar;
// otherwise Tolerance is the largest model error bar (absolute IPC)
// the client accepts — zero tolerance accepts nothing, so the empty
// spec is the explicit "exact answers only" request, overriding a
// daemon that defaults to estimation.
type EstimateSpec struct {
	Always    bool    `json:"always,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Event types on a submit response stream.
const (
	// EventHeader opens the stream: protocol tag and accepted count.
	EventHeader = "header"
	// EventResult carries one job's final result.
	EventResult = "result"
	// EventDone closes the stream after every accepted job has its
	// result event.
	EventDone = "done"
)

// Event is one newline-delimited JSON line of a submit response.
type Event struct {
	Type string `json:"type"`
	// Header fields.
	Protocol string `json:"protocol,omitempty"`
	// Accepted is the number of jobs admitted to the queue (the rest
	// produced immediate EventResult errors, e.g. key mismatches).
	Accepted int `json:"accepted,omitempty"`
	// Result fields: Index is the job's position in the submission,
	// Result its outcome. Skipped marks a job the daemon did not answer
	// (a failed or deadlined dispatch, or a drain; Result.Err carries
	// the cause): it is the one "resubmit" signal, and the client that
	// still wants the answer submits the job again. An unskipped error
	// is the job's deterministic outcome and is final.
	Index   int                `json:"index,omitempty"`
	Result  *remote.WireResult `json:"result,omitempty"`
	Skipped bool               `json:"skipped,omitempty"`
	// Done fields: Err is a submission-level failure, if any.
	Err string `json:"err,omitempty"`
}

// Stats is the StatsPath payload: a point-in-time snapshot of the
// daemon. Field names are stable lowercase JSON keys — CI and
// dashboards grep them.
type Stats struct {
	Protocol string `json:"protocol"`
	// QueueDepth is the number of jobs admitted but not yet dispatched.
	QueueDepth int `json:"queue_depth"`
	// Tenants is the number of client IDs with queued jobs.
	Tenants int `json:"tenants"`
	// Rejected counts submissions turned away by admission control.
	Rejected int64 `json:"rejected"`
	// Drained counts queued jobs a drain handed back skipped.
	Drained int64 `json:"drained"`
	// Requeued counts jobs a dispatch handed back skipped (backend
	// crash, empty fleet, per-job deadline) for their clients to
	// resubmit.
	Requeued int64 `json:"requeued"`
	// Engine lifetime counters (see engine.Stats for semantics).
	Submitted int `json:"submitted"`
	Simulated int `json:"simulated"`
	Hits      int `json:"hits"`
	Coalesced int `json:"coalesced"`
	DiskHits  int `json:"disk_hits"`
	// EstimatedHits counts jobs answered by the tier-0 analytical
	// estimator; EstimatedEscalated counts jobs that opted in but fell
	// through to the exact path (model declined, or the error bar
	// exceeded the tolerance).
	EstimatedHits      int `json:"estimated_hits"`
	EstimatedEscalated int `json:"estimated_escalated"`
	// Clients is the per-tenant delivery breakdown, sorted by client ID
	// (absent before the first delivery).
	Clients []ClientStats `json:"clients,omitempty"`
	// Workers lists the fleet's workers, each marked excluded while a
	// failed run keeps it down (absent when the daemon executes on a
	// local pool).
	Workers []remote.WorkerStatus `json:"workers,omitempty"`
}

// ClientStats is one tenant's delivery breakdown: every result the
// daemon delivered to that client, classified by the tier that
// produced it. Unlike the engine counters above — which aggregate the
// whole daemon and count coalesced joiners as plain hits — this
// breakdown distinguishes a warm-store hit (the answer was already
// cached when the job dispatched) from a coalesced join (the client
// piggybacked on another client's in-flight simulation), and counts
// tier-0 estimates separately from both. Jobs is the sum of the five
// result classes; a job a dispatch handed back skipped counts under
// Errors. Drained counts queued jobs a drain handed back skipped (not
// included in Jobs — they were never dispatched). Past a fixed number
// of client IDs, new IDs share one "(other clients)" row.
type ClientStats struct {
	Client    string `json:"client"`
	Jobs      int64  `json:"jobs"`
	Simulated int64  `json:"simulated"`
	StoreHits int64  `json:"store_hits"`
	Coalesced int64  `json:"coalesced"`
	Estimated int64  `json:"estimated"`
	Errors    int64  `json:"errors"`
	Drained   int64  `json:"drained"`
}

// Health is the HealthPath payload.
type Health struct {
	Protocol string `json:"protocol"`
	// QueueDepth mirrors Stats.QueueDepth, for cheap load probes.
	QueueDepth int `json:"queue_depth"`
	// Workers is the current fleet size (0 on a local-pool daemon).
	Workers int `json:"workers"`
}

// RegisterRequest is the body of a RegisterPath POST: the worker's
// reachable address (host:port or http:// URL).
type RegisterRequest struct {
	Protocol string `json:"protocol"`
	Addr     string `json:"addr"`
}

// RegisterResponse reports the registration outcome. Added is false
// when the worker was already in the fleet (a heartbeat — it is marked
// up instead).
type RegisterResponse struct {
	Protocol string `json:"protocol"`
	Added    bool   `json:"added"`
	// Workers is the fleet size after the registration.
	Workers int `json:"workers"`
}

// checkProtocol validates a peer's protocol tag.
func checkProtocol(got string) error {
	if got != ProtocolVersion {
		return fmt.Errorf("service: protocol mismatch: peer speaks %q, this binary %q", got, ProtocolVersion)
	}
	return nil
}
