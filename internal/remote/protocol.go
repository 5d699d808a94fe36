// Package remote distributes engine job batches across machines over a
// versioned JSON/HTTP protocol, turning the batch engine's Backend
// boundary into an RPC boundary.
//
// Topology. A worker process (cmd/p5worker) serves a Server, which
// runs each batch on a local worker pool behind two HTTP endpoints and
// keeps no cache of its own. The client side is HTTPBackend (one fleet
// Worker) and ShardedBackend (the fleet, an engine.Backend). The p5d
// daemon (internal/service) owns the only fleet: its engine runs unique
// uncached jobs on the ShardedBackend its workers register into,
// keeping caching, deduplication and retries in the daemon.
//
// Portability. A job travels as its engine.Job value plus its
// engine.JobKey. Both ends recompute the key from the decoded value: a
// mismatch means the two binaries disagree about what the job means
// (schema drift, incompatible build) and fails the job loudly instead
// of measuring the wrong thing. Built-in workloads resolve on the
// worker by fingerprint-verified Ref; custom kernels exist only in the
// registering process, so jobs naming them fail on the worker with a
// clear error — register custom kernels locally or run them on a local
// backend.
//
// Determinism. A job's result is a pure function of the Job value, so a
// worker returns bit-identical bytes to local execution; results merge
// by submission index. Any sharding — any worker count, any failure/
// retry interleaving — therefore produces output byte-identical to a
// local run.
package remote

import (
	"fmt"

	"power5prio/internal/engine"
	"power5prio/internal/fame"
)

// ProtocolVersion names the wire protocol. Client and worker must
// match exactly: the version is embedded in every request and response,
// and either side rejects a mismatch (a job's meaning is only stable
// within one protocol generation).
const ProtocolVersion = "p5remote/v1"

// Endpoint paths served by a worker.
const (
	// RunPath executes a job batch (POST, RunRequest -> RunResponse).
	RunPath = "/v1/run"
	// HealthPath reports liveness and capability (GET -> Health).
	HealthPath = "/v1/health"
)

// WireJob is one job on the wire: the Job value and the client's
// JobKey, recomputed and verified by the worker.
type WireJob struct {
	Key string     `json:"key"`
	Job engine.Job `json:"job"`
}

// RunRequest is the body of a RunPath POST.
type RunRequest struct {
	Protocol string    `json:"protocol"`
	Jobs     []WireJob `json:"jobs"`
}

// WireResult is one job's outcome. Err is the job-level failure rendered
// as text (errors do not survive JSON typed); an empty Err means Pair
// holds a successful measurement.
type WireResult struct {
	Key    string          `json:"key"`
	Pair   fame.PairResult `json:"pair"`
	Err    string          `json:"err,omitempty"`
	Cached bool            `json:"cached,omitempty"` // served from p5d's cache tiers (p5queue only; workers keep no cache)
	// Estimated marks a tier-0 analytical answer: Pair is a calibrated
	// model prediction, not a simulation, and ErrorBar is the model's
	// promised worst-case absolute IPC error for it. Workers never
	// produce estimates (the estimator sits in front of the engine that
	// owns the batch), so these fields are additive for the p5queue
	// stream, which reuses WireResult — p5remote stays at v1.
	Estimated bool    `json:"estimated,omitempty"`
	ErrorBar  float64 `json:"error_bar,omitempty"`
}

// RunResponse is the body of a RunPath response, results in request
// order.
type RunResponse struct {
	Protocol string       `json:"protocol"`
	Results  []WireResult `json:"results"`
}

// Health is the body of a HealthPath response.
type Health struct {
	Protocol string `json:"protocol"`
	// Capacity is the worker's simulation pool size.
	Capacity int `json:"capacity"`
	// Jobs counts jobs served since the worker started.
	Jobs int64 `json:"jobs"`
}

// checkProtocol validates a peer's protocol tag.
func checkProtocol(got string) error {
	if got != ProtocolVersion {
		return fmt.Errorf("remote: protocol mismatch: peer speaks %q, this binary %q", got, ProtocolVersion)
	}
	return nil
}
