// Package cluster shards extrapolation sweeps across serve replicas.
//
// The extrapolation grid is embarrassingly parallel across measured-
// trace groups: every cell of one group shares a measurement (same
// benchmark, size, and thread count — only the machine model differs),
// and cells of different groups share nothing. A Coordinator therefore
// partitions a sweep into one shard per measurement group and
// dispatches each shard to a worker replica over HTTP. Workers execute
// shards through their own experiments.Service (the same pipeline the
// solo server runs), return per-cell results as exact virtual-
// nanosecond integers, and the coordinator merges them into the same
// []metrics.Point series the solo path produces — so distributed output
// is byte-identical to solo output by construction: the numbers are
// exact integers and the rendering path is shared.
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
// garbage-collects the entry. A coordinator whose worker dies sees its poll (or
// the initial dispatch) fail, marks the peer unhealthy, and re-
// dispatches the shard to a healthy peer — or, when every peer is down,
// executes it locally. Either way the sweep completes and the output
// bytes do not depend on which node computed which shard.
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
// registry names are resolved (never trusted), list lengths and work
// products are capped with the same discipline as the public API, and
// malformed requests answer 4xx without panicking. Artifact payloads
// are served only after the store's checksum verification, so a
// corrupted artifact is quarantined, never shipped to a peer.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
)

// shardWorkUnits estimates one shard's measurement cost: the
// benchmark's own estimator when it has one (composed workloads know
// their event totals), else the size×iters×threads proxy the public
// API has always used.
func shardWorkUnits(b benchmarks.Benchmark, sz benchmarks.Size, threads int) int64 {
	if we, ok := b.(benchmarks.WorkEstimator); ok {
		return we.WorkUnits(sz, threads)
	}
	return int64(sz.N) * int64(sz.Iters) * int64(threads)
}

// Protocol ceilings. Shard specs arrive from peers, not end users, but
// the caps discipline is the same as the public API's: nothing is
// allocated or executed from unvalidated counts.
const (
	// MaxShardMachines bounds the machine list of one shard. It matches
	// the public sweep API's machine bound: a shard is a slice of a
	// request that already passed that bound.
	MaxShardMachines = 16
	// MaxShardThreads bounds the measured thread count, matching the
	// public API's threads ceiling.
	MaxShardThreads = 256
	// MaxShardWorkUnits bounds size × iters × threads for one shard,
	// matching the public API's per-request work budget.
	MaxShardWorkUnits = 1 << 26
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

// apiError mirrors the serving layer's typed error envelope
// ({"error":{code,message}}) so internal endpoints speak the same error
// dialect as the public API.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, e *apiError) {
	body, _ := json.Marshal(struct {
		Error *apiError `json:"error"`
	}{e})
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(e.Status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, errf(http.StatusInternalServerError, "internal", "encoding response: %v", err))
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// resolve validates a shard spec against the live registries and the
// protocol ceilings, returning the resolved benchmark, size, and
// environments. Every failure is a 4xx — a spec that fails here would
// fail identically on any replica, so the coordinator must not retry it.
func (sp *ShardSpec) resolve() (benchmarks.Benchmark, benchmarks.Size, []machine.Env, *apiError) {
	if sp.Benchmark == "" {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "missing_benchmark", "benchmark is required")
	}
	var b benchmarks.Benchmark
	if len(sp.Workload) > 0 {
		wl, err := compose.FromJSON(sp.Workload)
		if err != nil {
			return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_workload", "%v", err)
		}
		// The shard's cache keys and content addresses are derived from
		// Benchmark, so the spec bytes must actually be the workload that
		// name promises.
		if wl.Name() != sp.Benchmark {
			return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "workload_mismatch",
				"workload spec derives %s but the shard names %s", wl.Name(), sp.Benchmark)
		}
		b = wl
	} else {
		var err error
		b, err = benchmarks.ByName(sp.Benchmark)
		if err != nil {
			return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "unknown_benchmark", "%v", err)
		}
	}
	if sp.Size < 1 || sp.Iters < 1 {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_size",
			"shard size parameters must be resolved and positive, got size=%d iters=%d", sp.Size, sp.Iters)
	}
	if sp.Threads < 1 || sp.Threads > MaxShardThreads {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_threads",
			"threads must be in [1, %d], got %d", MaxShardThreads, sp.Threads)
	}
	if w := shardWorkUnits(b, benchmarks.Size{N: sp.Size, Iters: sp.Iters}, sp.Threads); w > MaxShardWorkUnits {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "work_budget_exceeded",
			"shard work %d exceeds the budget %d", w, int64(MaxShardWorkUnits))
	}
	if len(sp.Machines) == 0 {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_machines", "machines is required")
	}
	if len(sp.Machines) > MaxShardMachines {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_machines",
			"machines has %d entries, max %d", len(sp.Machines), MaxShardMachines)
	}
	if sp.LeaseMs != 0 && (sp.LeaseMs < MinLeaseMs || sp.LeaseMs > MaxLeaseMs) {
		return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_lease",
			"lease_ms must be 0 (default) or in [%d, %d], got %d", MinLeaseMs, MaxLeaseMs, sp.LeaseMs)
	}
	envs := make([]machine.Env, len(sp.Machines))
	seen := make(map[string]bool, len(sp.Machines))
	for i, name := range sp.Machines {
		env, err := machine.ByName(name)
		if err != nil {
			return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "unknown_machine", "%v", err)
		}
		if seen[env.Name] {
			return nil, benchmarks.Size{}, nil, errf(http.StatusBadRequest, "invalid_machines",
				"machine %q listed more than once", env.Name)
		}
		seen[env.Name] = true
		envs[i] = env
	}
	sz := benchmarks.Size{N: sp.Size, Iters: sp.Iters}
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

// measurementKey is the canonical cache key of the shard's shared
// measurement — identical to the key the solo sweep path computes, so
// affinity routing, store addresses, and single-flight dedup all speak
// one key language.
func (sp *ShardSpec) measurementKey() core.CacheKey {
	return core.CacheKey{
		Bench:   sp.Benchmark,
		N:       sp.Size,
		Iters:   sp.Iters,
		Threads: sp.Threads,
		Opts:    core.MeasureOptions{SizeMode: pcxx.ActualSize},
	}
}
