// Package cluster shards extrapolation sweeps across serve replicas.
//
// The extrapolation grid is embarrassingly parallel across measured-
// trace groups: every cell of one group shares a measurement (same
// benchmark, size, and thread count — only the machine model differs),
// and cells of different groups share nothing. One group is one ladder
// point, the unit an experiments.PointRunner runs, and a Coordinator is
// the cluster's PointRunner: it turns each ladder point into one shard
// and dispatches it to a worker replica over HTTP. Workers execute a
// shard through their own Service.RunPoint — the executor a solo server
// runs its sweeps and async jobs through — and return per-cell
// results as exact virtual-nanosecond integers. The coordinator merges
// them into the same []metrics.Point series the solo path produces, so
// distributed output is byte-identical to solo output by construction:
// the numbers are exact integers and the rendering path is shared.
// Serve hands the Coordinator to every sweep and async job a coordinator
// runs, through the fan-out a solo server uses (experiments.RunLadder
// and the jobs queue), so its -workers bounds the shards in flight.
//
// # Protocol
//
// Three internal endpoints, mounted by `extrap serve` according to role:
//
//	POST /v1/internal/shards          (worker)  accept a shard, 202 + ID
//	GET  /v1/internal/shards/{id}     (worker)  poll status; renews lease
//	GET  /v1/internal/artifacts/{keyhash}  (any node with a store)
//	                                  serve verified XART1 payload bytes
//
// A shard is leased, not owned: the worker executes it in the
// background and the coordinator's polls are the heartbeat that keeps
// the lease alive. Execution itself also holds the lease — a shard
// whose pipeline outruns the poll cadence is never reaped mid-run, so
// a slow coordinator cannot turn one shard into duplicate work on two
// replicas. A worker whose coordinator dies finishes the in-flight
// execution (bounded by the shard work budget), restarts the lease
// clock on completion, stops hearing polls, lets the lease expire, and
// garbage-collects the entry. A coordinator whose worker dies sees its
// poll (or the initial dispatch) fail, marks the peer unhealthy, and
// re-dispatches the shard to a healthy peer — or, when every peer is
// down, executes it locally through its own Service.RunPoint. Either
// way the sweep completes and the output bytes do not depend on which
// node computed which shard.
//
// # Cross-node dedup
//
// Shards are routed by affinity: the coordinator hashes the shard's
// canonical measurement key (core.CacheKey.Canonical — the same string
// that content-addresses the trace in the artifact store) and picks the
// peer at hash mod len(peers). Two concurrent sweeps naming the same
// configuration therefore land on the same worker, whose in-process
// single-flight measurement dedup collapses them into one run — no two
// replicas measure the same configuration twice. Failover breaks
// affinity only for the duration of the outage, and the artifact fetch
// endpoint (plus RemoteBackend) lets the re-routed worker pull the
// already-measured trace instead of re-measuring it.
//
// # Trust model
//
// Peers are semi-trusted: they are replicas run by the same operator,
// but a worker still treats every inbound shard spec as hostile input —
// it passes the public API's resolver and ceilings (package request)
// plus the shard-only rules, and malformed requests answer 4xx without
// panicking. Artifact payloads
// are served only after the store's checksum verification, so a
// corrupted artifact is quarantined, never shipped to a peer.
package cluster

import (
	"encoding/json"
	"net/http"

	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/request"
)

// Protocol ceilings. Shard specs arrive from peers, not end users, but
// they pass the public API's resolver and ceilings (package request);
// these bound only what is shard-specific.
const (
	// MaxShardBodyBytes caps an inbound shard spec's encoded size.
	MaxShardBodyBytes = 1 << 16
	// MinLeaseMs / MaxLeaseMs bound the lease a coordinator may request.
	// A lease below the floor would expire between honest polls; one
	// above the ceiling would pin a dead coordinator's shard for hours.
	MinLeaseMs = 100
	MaxLeaseMs = 120_000
	// DefaultLeaseMs is used when a spec leaves the lease unset.
	DefaultLeaseMs = 10_000
)

// ShardSpec is one dispatched measurement group: a single (benchmark,
// size, iters, threads) measurement simulated under every named machine.
// Size and iters are fully resolved — defaults substituted by the
// coordinator — so the worker's cache keys and content addresses match
// the coordinator's exactly.
//
// Benchmark is ALWAYS set — for a composed workload it is the derived
// content name ("wl:<hash>"), which is what the affinity hash, cache
// keys, and store addresses speak. Workload additionally carries the
// spec JSON so the worker can synthesize the program (ad-hoc workloads
// are not resolvable from any registry); the worker re-derives the name
// from those bytes and rejects the shard if it disagrees with
// Benchmark, so a tampered relay cannot poison a content address.
type ShardSpec struct {
	Benchmark string          `json:"benchmark"`
	Workload  json.RawMessage `json:"workload,omitempty"`
	Size      int             `json:"size"`
	Iters     int             `json:"iters"`
	Threads   int             `json:"threads"`
	Machines  []string        `json:"machines"`
	// LeaseMs is how long the worker keeps the shard alive without
	// hearing a poll; 0 selects DefaultLeaseMs.
	LeaseMs int `json:"lease_ms,omitempty"`
}

// CellResult is one completed grid cell: the machine it was simulated
// for and the exact predicted total time in virtual nanoseconds. Exact
// integers are the byte-identity contract — floats are derived from
// them only at the rendering layer, which coordinator and solo paths
// share.
type CellResult struct {
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	TotalNs int64  `json:"total_ns"`
}

// Shard lifecycle states.
const (
	ShardRunning = "running"
	ShardDone    = "done"
	ShardFailed  = "failed"
)

// ShardAccepted is the 202 body answering a shard dispatch.
type ShardAccepted struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	LeaseMs int    `json:"lease_ms"`
}

// ShardStatus is the poll response. Cells is present only once Status
// is ShardDone; Error only when ShardFailed.
type ShardStatus struct {
	ID     string       `json:"id"`
	Status string       `json:"status"`
	Error  string       `json:"error,omitempty"`
	Cells  []CellResult `json:"cells,omitempty"`
}

// checkShardRules checks what only a shard must satisfy, ahead of the
// shared resolver so these error codes stand: a shard names its
// benchmark and carries resolved sizes (size ≥ 1; iters ≥ 0, since
// kernels without an iteration count resolve to 0), at least one
// machine, and a lease within bounds.
func (sp *ShardSpec) checkShardRules() *request.Error {
	switch {
	case sp.Benchmark == "":
		return request.Errorf(http.StatusBadRequest, "missing_benchmark", "benchmark is required")
	case sp.Size < 1 || sp.Iters < 0:
		return request.Errorf(http.StatusBadRequest, "invalid_size",
			"shard size parameters must be resolved, got size=%d iters=%d", sp.Size, sp.Iters)
	case len(sp.Machines) == 0:
		return request.Errorf(http.StatusBadRequest, "invalid_machines", "machines is required")
	case sp.LeaseMs != 0 && (sp.LeaseMs < MinLeaseMs || sp.LeaseMs > MaxLeaseMs):
		return request.Errorf(http.StatusBadRequest, "invalid_lease",
			"lease_ms must be 0 (default) or in [%d, %d], got %d", MinLeaseMs, MaxLeaseMs, sp.LeaseMs)
	}
	return nil
}

// resolve validates a shard spec — the shard-only rules, then the public
// API's resolver, which also requires a workload spec to derive the
// shard's name — and returns the resolved benchmark, size, and
// environments. Every failure is a 4xx — a spec that fails here would
// fail identically on any replica, so the coordinator must not retry it.
func (sp *ShardSpec) resolve() (benchmarks.Benchmark, benchmarks.Size, []machine.Env, *request.Error) {
	if apiErr := sp.checkShardRules(); apiErr != nil {
		return nil, benchmarks.Size{}, nil, apiErr
	}
	b, sz, apiErr := request.ResolveProgram(sp.Benchmark, sp.Workload, sp.Size, sp.Iters)
	if apiErr == nil {
		apiErr = request.CheckMeasurement(b, sz, sp.Threads)
	}
	if apiErr != nil {
		return nil, benchmarks.Size{}, nil, apiErr
	}
	envs, apiErr := request.ResolveMachines(sp.Machines)
	if apiErr != nil {
		return nil, benchmarks.Size{}, nil, apiErr
	}
	return b, sz, envs, nil
}

// RetryAfterSeconds derives a Retry-After header value from backlog
// pressure: 1 second while the backlog is within one capacity's worth
// of work, one extra second per additional capacity multiple, capped at
// maxRetryAfterSeconds so a deep queue never tells clients to go away
// for minutes. Shared by every 429 path — the serve limiter and the
// worker's shard-capacity rejection — so the hint always reflects load
// instead of a hardcoded constant.
func RetryAfterSeconds(backlog, capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	if backlog < 0 {
		backlog = 0
	}
	s := 1 + backlog/capacity
	if s > maxRetryAfterSeconds {
		s = maxRetryAfterSeconds
	}
	return s
}

// maxRetryAfterSeconds caps the Retry-After hint. Load spikes on this
// service drain in seconds (requests are bounded by work budgets), so
// advising a longer back-off would only desynchronize honest clients.
const maxRetryAfterSeconds = 30
