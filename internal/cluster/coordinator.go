package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/request"
	"extrap/internal/vtime"
)

// CoordinatorConfig shapes a Coordinator.
type CoordinatorConfig struct {
	// Peers are the worker replicas' base URLs ("http://host:port").
	// Required, at least one.
	Peers []string
	// Service is the local experiment engine used as the fallback
	// executor when no peer can take a shard. Required — a coordinator
	// must be able to finish a sweep with every worker dead.
	Service *experiments.Service
	// PollInterval is how often a dispatched shard is polled; ≤ 0
	// selects 50ms.
	PollInterval time.Duration
}

// callTimeout bounds one HTTP call (dispatch or poll) — NOT shard
// execution, which is bounded by the caller's context across many polls.
const callTimeout = 10 * time.Second

// peer is one worker replica's dispatch bookkeeping.
type peer struct {
	url        string
	healthy    atomic.Bool
	dispatched atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
}

// PeerHealth is one peer's state for observability surfaces.
type PeerHealth struct {
	URL        string
	Healthy    bool
	Dispatched int64
	Completed  int64
	Failed     int64
}

// CoordinatorStats is a snapshot of shard routing for /debug/vars.
type CoordinatorStats struct {
	Dispatched int64 // shards handed to a peer (incl. re-dispatches)
	Completed  int64 // shards whose results merged successfully
	Retried    int64 // re-dispatches after a peer failed mid-shard
	Local      int64 // shards executed locally (every peer down)
	Peers      []PeerHealth
}

// Coordinator runs ladder points as measured-trace shards dispatched
// across worker replicas, answering each with exact per-cell results.
// Safe for concurrent use; one Coordinator serves every request of a
// serve process.
type Coordinator struct {
	cfg    CoordinatorConfig
	peers  []*peer
	client *http.Client

	dispatched atomic.Int64
	completed  atomic.Int64
	retried    atomic.Int64
	local      atomic.Int64
}

// NewCoordinator validates cfg and returns a Coordinator. Peers start
// healthy and are probed by use: a failed dispatch or poll marks the
// peer down (skipped on first-choice routing until it completes a shard
// again).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one peer")
	}
	if cfg.Service == nil {
		return nil, errors.New("cluster: coordinator needs a local Service for fallback execution")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	c := &Coordinator{cfg: cfg, client: &http.Client{}}
	for _, u := range cfg.Peers {
		p := &peer{url: u}
		p.healthy.Store(true)
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// Stats reports shard routing counters and per-peer health.
func (c *Coordinator) Stats() CoordinatorStats {
	st := CoordinatorStats{
		Dispatched: c.dispatched.Load(),
		Completed:  c.completed.Load(),
		Retried:    c.retried.Load(),
		Local:      c.local.Load(),
	}
	for _, p := range c.peers {
		st.Peers = append(st.Peers, PeerHealth{
			URL:        p.url,
			Healthy:    p.healthy.Load(),
			Dispatched: p.dispatched.Load(),
			Completed:  p.completed.Load(),
			Failed:     p.failed.Load(),
		})
	}
	return st
}

// permanentError marks a failure that is a property of the shard spec
// or the deterministic pipeline, not of the peer that reported it —
// re-dispatching elsewhere would fail identically, so the coordinator
// must surface it instead of retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// RunPoint implements experiments.PointRunner on the cluster: the
// ladder point — benchmark b at size sz, measured at threads threads and
// simulated under every machine in envs — becomes one shard, and the
// answer is one exact total time per machine in envs order. Routing is
// affinity-first (hash of the canonical measurement key, so repeated
// requests for one configuration land on one worker and dedup in its
// single-flight cache), with failover across the remaining peers and the
// local Service's RunPoint, over f, as the last resort. The caller's ctx
// bounds the whole attempt chain.
//
// A composed workload's shard carries its spec JSON alongside the
// derived content name, so the worker can synthesize the program.
// Affinity still hashes the measurement key — the name — so a composed
// configuration lands on one worker like any other.
func (c *Coordinator) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
	machines := make([]string, len(envs))
	for i, env := range envs {
		machines[i] = env.Name
	}
	spec := ShardSpec{
		Benchmark: b.Name(),
		Workload:  request.WorkloadJSON(b),
		Size:      sz.N,
		Iters:     sz.Iters,
		Threads:   threads,
		Machines:  machines,
		LeaseMs:   DefaultLeaseMs,
	}
	h := fnv.New32a()
	io.WriteString(h, experiments.MeasurementKey(b.Name(), sz, threads, core.MeasureOptions{SizeMode: pcxx.ActualSize}).Canonical())
	start := int(h.Sum32()) % len(c.peers)
	if start < 0 {
		start += len(c.peers)
	}

	// First pass: healthy peers only, affinity order. Second pass: every
	// peer — an "unhealthy" peer may have recovered, and trying it is
	// the only probe there is. A shard that was accepted but lost
	// mid-flight counts as a retry when it moves on.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(c.peers); i++ {
			p := c.peers[(start+i)%len(c.peers)]
			if pass == 0 && !p.healthy.Load() {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cells, accepted, err := c.runOnPeer(ctx, p, spec)
			if err == nil {
				c.completed.Add(1)
				return cellTimes(cells, machines)
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				return nil, perm.err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if accepted {
				c.retried.Add(1)
			}
		}
	}

	// Every peer is down: execute locally so the sweep still completes.
	// Results are byte-identical by the pipeline's determinism, so WHERE
	// a shard ran never shows in the output.
	c.local.Add(1)
	times, err := c.cfg.Service.RunPoint(ctx, b, sz, f, threads, envs)
	if err != nil {
		return nil, err
	}
	c.completed.Add(1)
	return times, nil
}

// runOnPeer dispatches one shard to one peer and polls it to
// completion. accepted reports whether the peer took the shard before
// failing — the distinction between "never started" and "died
// mid-shard" that the retry counter cares about.
func (c *Coordinator) runOnPeer(ctx context.Context, p *peer, spec ShardSpec) (cells []CellResult, accepted bool, err error) {
	acc, err := c.dispatch(ctx, p, spec)
	if err != nil {
		if !isPermanent(err) {
			p.healthy.Store(false)
			p.failed.Add(1)
		}
		return nil, false, err
	}
	c.dispatched.Add(1)
	p.dispatched.Add(1)

	// Poll until terminal. A few consecutive poll failures mean the
	// worker died (or was partitioned past usefulness): give up on it
	// and let the caller re-dispatch.
	const pollFailLimit = 3
	fails := 0
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, true, ctx.Err()
		case <-ticker.C:
		}
		st, perr := c.poll(ctx, p, acc.ID)
		if perr != nil {
			if isPermanent(perr) {
				// 404: the worker restarted or GC'd the lease — the shard
				// is gone there; re-dispatch.
				p.healthy.Store(false)
				p.failed.Add(1)
				return nil, true, fmt.Errorf("cluster: shard %s lost on %s: %w", acc.ID, p.url, perr)
			}
			fails++
			if fails >= pollFailLimit {
				p.healthy.Store(false)
				p.failed.Add(1)
				return nil, true, fmt.Errorf("cluster: peer %s unreachable polling shard %s: %w", p.url, acc.ID, perr)
			}
			continue
		}
		fails = 0
		switch st.Status {
		case ShardRunning:
			continue
		case ShardDone:
			p.completed.Add(1)
			p.healthy.Store(true)
			return st.Cells, true, nil
		case ShardFailed:
			// Deterministic pipeline failure: every replica would report
			// the same thing. Not the peer's fault — it stays healthy.
			p.healthy.Store(true)
			return nil, true, &permanentError{fmt.Errorf("cluster: shard failed on %s: %s", p.url, st.Error)}
		default:
			p.healthy.Store(false)
			p.failed.Add(1)
			return nil, true, fmt.Errorf("cluster: peer %s reported unknown shard status %q", p.url, st.Status)
		}
	}
}

// dispatch POSTs the shard spec. A 4xx is permanent (the spec itself is
// bad); connection errors and 5xx/429 are transient.
func (c *Coordinator) dispatch(ctx context.Context, p *peer, spec ShardSpec) (ShardAccepted, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return ShardAccepted{}, &permanentError{err}
	}
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, p.url+"/v1/internal/shards", bytes.NewReader(body))
	if err != nil {
		return ShardAccepted{}, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return ShardAccepted{}, fmt.Errorf("cluster: dispatch to %s: %w", p.url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxShardBodyBytes))
	if err != nil {
		return ShardAccepted{}, fmt.Errorf("cluster: dispatch to %s: %w", p.url, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		err := fmt.Errorf("cluster: dispatch to %s: status %d: %s", p.url, resp.StatusCode, bytes.TrimSpace(raw))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return ShardAccepted{}, &permanentError{err}
		}
		return ShardAccepted{}, err
	}
	var acc ShardAccepted
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		return ShardAccepted{}, fmt.Errorf("cluster: dispatch to %s: bad accept body %q", p.url, raw)
	}
	return acc, nil
}

// poll GETs a shard's status, renewing its lease. A 404 is returned as
// a permanentError to signal "this shard is gone on this peer" — the
// caller translates that into a re-dispatch, not a user-visible error.
func (c *Coordinator) poll(ctx context.Context, p *peer, id string) (ShardStatus, error) {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, p.url+"/v1/internal/shards/"+id, nil)
	if err != nil {
		return ShardStatus{}, &permanentError{err}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return ShardStatus{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ShardStatus{}, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return ShardStatus{}, &permanentError{fmt.Errorf("shard %s: 404", id)}
	}
	if resp.StatusCode != http.StatusOK {
		return ShardStatus{}, fmt.Errorf("poll %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st ShardStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return ShardStatus{}, fmt.Errorf("poll %s: bad body: %w", id, err)
	}
	return st, nil
}

// isPermanent reports whether err carries a permanentError.
func isPermanent(err error) bool {
	var perm *permanentError
	return errors.As(err, &perm)
}

// cellTimes validates a shard result against the request — the worker
// is semi-trusted, so a response naming wrong machines or the wrong
// cell count is rejected, which the caller surfaces as a failed shard —
// and extracts the exact times in machines order.
func cellTimes(cells []CellResult, machines []string) ([]vtime.Time, error) {
	if len(cells) != len(machines) {
		return nil, fmt.Errorf("cluster: shard returned %d cells for %d machines", len(cells), len(machines))
	}
	out := make([]vtime.Time, len(cells))
	for i, cell := range cells {
		if cell.Machine != machines[i] {
			return nil, fmt.Errorf("cluster: shard cell %d is for machine %q, want %q", i, cell.Machine, machines[i])
		}
		out[i] = vtime.Time(cell.TotalNs)
	}
	return out, nil
}
