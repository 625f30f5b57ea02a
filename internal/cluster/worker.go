package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extrap/internal/experiments"
	"extrap/internal/request"
)

// maxActiveShards bounds concurrently resident shards on one worker —
// running plus completed-but-not-yet-collected. A coordinator fleet
// never needs more than a few per sweep; the bound exists so a hostile
// or looping peer cannot grow worker memory without limit.
const maxActiveShards = 256

// WorkerStats is a snapshot of shard traffic for /debug/vars.
type WorkerStats struct {
	Accepted  int64 // shards accepted for execution
	Completed int64 // shards that finished successfully
	Failed    int64 // shards whose pipeline returned an error
	Expired   int64 // shards dropped because their lease lapsed
	Rejected  int64 // dispatches refused (validation or capacity)
	Active    int64 // shards currently resident
}

// shard is one leased execution on the worker.
type shard struct {
	id     string
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	errMsg string
	cells  []CellResult
	lease  time.Duration
	expiry time.Time
}

// Worker executes each dispatched shard as one ladder point through its
// local Service's RunPoint — the executor a solo server runs — and
// answers polls until the coordinator collects the result or the lease
// expires. Safe for concurrent use.
type Worker struct {
	svc  *experiments.Service
	base context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu     sync.Mutex
	shards map[string]*shard

	accepted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	expired   atomic.Int64
	rejected  atomic.Int64
}

// NewWorker returns a Worker executing shards on svc. gcInterval bounds
// how often expired leases are collected; ≤ 0 selects 250ms. Call Close
// to cancel running shards and stop the collector.
func NewWorker(svc *experiments.Service, gcInterval time.Duration) *Worker {
	if gcInterval <= 0 {
		gcInterval = 250 * time.Millisecond
	}
	base, stop := context.WithCancel(context.Background())
	w := &Worker{
		svc:    svc,
		base:   base,
		stop:   stop,
		shards: make(map[string]*shard),
	}
	w.wg.Add(1)
	go w.gcLoop(gcInterval)
	return w
}

// Close cancels every running shard and stops the lease collector.
func (w *Worker) Close() {
	w.stop()
	w.wg.Wait()
}

// Stats reports shard traffic counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	active := int64(len(w.shards))
	w.mu.Unlock()
	return WorkerStats{
		Accepted:  w.accepted.Load(),
		Completed: w.completed.Load(),
		Failed:    w.failed.Load(),
		Expired:   w.expired.Load(),
		Rejected:  w.rejected.Load(),
		Active:    active,
	}
}

// gcLoop drops shards whose lease expired without a poll: the
// coordinator is gone, so the entry is freed. A subsequent poll for the
// ID answers 404 — the coordinator (if it was merely partitioned, not
// dead) treats that as worker death and re-dispatches, which is safe
// because results are deterministic and content-addressed.
//
// A shard still EXECUTING holds its lease implicitly: execution in
// flight is the work the lease exists to protect, and reaping it on a
// slow coordinator poll would discard real computation only to have the
// re-dispatch redo it elsewhere (duplicate work, same bytes). The
// executor restarts the lease clock when it finishes, so a shard whose
// coordinator truly died still ages out one lease after completing —
// worker memory stays bounded by maxActiveShards either way, and
// abandoned-work exposure is bounded by the shard work budget.
func (w *Worker) gcLoop(interval time.Duration) {
	defer w.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.base.Done():
			return
		case now := <-ticker.C:
			w.mu.Lock()
			for id, sh := range w.shards {
				sh.mu.Lock()
				dead := sh.status != ShardRunning && now.After(sh.expiry)
				sh.mu.Unlock()
				if dead {
					sh.cancel()
					delete(w.shards, id)
					w.expired.Add(1)
				}
			}
			w.mu.Unlock()
		}
	}
}

// HandleDispatch serves POST /v1/internal/shards: validate the spec
// against registries and ceilings, start executing it in the
// background, and answer 202 with the shard ID to poll.
func (w *Worker) HandleDispatch(rw http.ResponseWriter, r *http.Request) {
	var spec ShardSpec
	if apiErr := request.DecodeJSON(r, &spec, MaxShardBodyBytes); apiErr != nil {
		w.rejected.Add(1)
		request.WriteError(rw, apiErr)
		return
	}
	b, sz, envs, apiErr := spec.resolve()
	if apiErr != nil {
		w.rejected.Add(1)
		request.WriteError(rw, apiErr)
		return
	}
	lease := time.Duration(spec.LeaseMs) * time.Millisecond
	if spec.LeaseMs == 0 {
		lease = DefaultLeaseMs * time.Millisecond
	}

	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		request.WriteError(rw, request.Errorf(http.StatusInternalServerError, "internal", "shard id: %v", err))
		return
	}
	id := "s-" + hex.EncodeToString(raw[:])
	ctx, cancel := context.WithCancel(w.base)
	sh := &shard{
		id:     id,
		cancel: cancel,
		status: ShardRunning,
		lease:  lease,
		expiry: time.Now().Add(lease),
	}

	w.mu.Lock()
	if resident := len(w.shards); resident >= maxActiveShards {
		w.mu.Unlock()
		cancel()
		w.rejected.Add(1)
		rw.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(resident, maxActiveShards)))
		request.WriteError(rw, request.Errorf(http.StatusTooManyRequests, "overloaded",
			"worker at its shard limit (%d resident); retry shortly", maxActiveShards))
		return
	}
	w.shards[id] = sh
	w.mu.Unlock()
	w.accepted.Add(1)

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		times, err := runPoint(w.svc, ctx, b, sz, b.Factory(sz), spec.Threads, envs)
		sh.mu.Lock()
		if err != nil {
			sh.status = ShardFailed
			sh.errMsg = err.Error()
			w.failed.Add(1)
		} else {
			sh.status = ShardDone
			sh.cells = make([]CellResult, len(envs))
			for i, env := range envs {
				sh.cells[i] = CellResult{Machine: env.Name, Procs: spec.Threads, TotalNs: int64(times[i])}
			}
			w.completed.Add(1)
		}
		// Execution held the lease (gcLoop skips running shards); restart
		// the clock now so the coordinator gets one full lease to collect
		// the result before an abandoned entry is garbage-collected.
		sh.expiry = time.Now().Add(sh.lease)
		sh.mu.Unlock()
	}()

	request.WriteJSON(rw, http.StatusAccepted, ShardAccepted{ID: id, Status: ShardRunning, LeaseMs: int(lease / time.Millisecond)})
}

// HandlePoll serves GET /v1/internal/shards/{id}: report the shard's
// state and renew its lease (the poll IS the heartbeat). A finished
// shard is collected — removed from the registry — when its result is
// delivered, so worker memory is bounded by in-flight work, not sweep
// history. An unknown or expired ID answers 404; the coordinator
// re-dispatches.
func (w *Worker) HandlePoll(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	sh, ok := w.shards[id]
	w.mu.Unlock()
	if !ok {
		request.WriteError(rw, request.Errorf(http.StatusNotFound, "unknown_shard",
			"no shard %q (never dispatched here, collected, or lease expired)", id))
		return
	}
	sh.mu.Lock()
	sh.expiry = time.Now().Add(sh.lease)
	st := ShardStatus{ID: id, Status: sh.status, Error: sh.errMsg}
	if sh.status == ShardDone {
		st.Cells = sh.cells
	}
	terminal := sh.status != ShardRunning
	sh.mu.Unlock()
	if terminal {
		w.mu.Lock()
		delete(w.shards, id)
		w.mu.Unlock()
		sh.cancel()
	}
	request.WriteJSON(rw, http.StatusOK, st)
}

// runPoint is the dispatch goroutine's executor, indirect so tests can
// pin execution duration against the lease clock.
var runPoint = (*experiments.Service).RunPoint
