// Package jobs is a durable asynchronous job queue for extrapolation
// sweeps: submit a sweep, get a job ID back immediately, and let a
// worker pool execute the grid cells through the shared experiment
// engine while per-cell results are persisted to the artifact store as
// they land. Because every cell's prediction is content-addressed
// (core.CanonicalPrediction) and the measurement pipeline is
// deterministic, a restarted manager resumes incomplete jobs from their
// persisted partials: cells that finished before the crash are loaded
// from the store instead of re-simulated, and the completed job's
// results are byte-identical to a synchronous in-memory sweep.
//
// Durability model: job specs and statuses live as one JSON file per
// job under the manager's directory (written atomically, temp file +
// rename); cell results live in the artifact store. A job interrupted
// by a crash — or by Close, which is deliberately crash-shaped — stays
// persisted as "running" and re-enters the queue on the next Open. Only
// an explicit Cancel persists the "cancelled" state.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/pool"
	"extrap/internal/request"
	"extrap/internal/store"
	"extrap/internal/vtime"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Spec is the resolved description of one sweep job: concrete size
// parameters (defaults already substituted) and registry names. Specs
// are persisted verbatim, so their resolution must be stable across
// restarts — Submit resolves and validates before writing anything, and
// every run, a resume included, resolves the persisted spec again
// through the same request.Sweep resolver as POST /v1/jobs. Its fields
// are request.Sweep's, which it converts to.
type Spec struct {
	Benchmark string `json:"benchmark"`
	// Workload, when set, is a composed workload's spec JSON: the job
	// measures the synthesized program instead of a registry benchmark.
	// Submit resolves Benchmark to the workload's derived content name
	// ("wl:<hash>"), so every content address the job's cells land on is
	// a pure function of the persisted spec — a restarted manager
	// re-derives the same addresses and resumes from the same partials.
	Workload json.RawMessage `json:"workload,omitempty"`
	Size     int             `json:"size"`
	Iters    int             `json:"iters"`
	// Machine names a single target environment. Exactly one of Machine
	// / Machines must be set.
	Machine string `json:"machine,omitempty"`
	// Machines names several target environments swept against the same
	// measurements — one curve per machine. Cells are addressed
	// machine-major: the grid is Machines × Procs and every machine's
	// cells at one ladder point share one measurement.
	Machines []string `json:"machines,omitempty"`
	Procs    []int    `json:"procs"`
	// Mode is "" (exact: every cell simulated) or request.ModeFitted
	// (sparse anchors simulated, dense curve fitted at render time; see
	// runFitted). Persisted as "" for exact, so pre-mode job files load
	// unchanged.
	Mode string `json:"mode,omitempty"`
}

// machineNames returns the job's machine list: Machines when set, else
// the single Machine.
func (sp Spec) machineNames() []string {
	if len(sp.Machines) > 0 {
		return sp.Machines
	}
	return []string{sp.Machine}
}

// cellRecord is the persisted result of one grid cell, stored in the
// artifact store under the cell's prediction content address. The
// fields are exact integers (virtual nanoseconds), so the record
// round-trips bit-for-bit and a restored sweep renders byte-identically
// to a freshly computed one.
type cellRecord struct {
	Procs   int   `json:"procs"`
	TotalNs int64 `json:"total_ns"`
}

// jobFile is the persisted form of one job. Points is flat and
// machine-major (machine 0's ladder, then machine 1's, …), so a
// single-machine job file is byte-compatible with the pre-multi-machine
// format.
type jobFile struct {
	ID     string       `json:"id"`
	Spec   Spec         `json:"spec"`
	Status Status       `json:"status"`
	Error  string       `json:"error,omitempty"`
	Done   int          `json:"done_cells"`
	Points []cellRecord `json:"points,omitempty"`
}

// Job is the in-memory state of one job. Fields are guarded by the
// Manager's mutex.
type Job struct {
	id       string
	spec     Spec
	status   Status
	errMsg   string
	done     int
	points   [][]metrics.Point // one curve per machine, ladder-indexed
	havePt   [][]bool
	cancel   context.CancelFunc
	userStop bool // Cancel was called (vs. manager shutdown)
}

// Snapshot is a point-in-time copy of a job's state for serving layers.
type Snapshot struct {
	ID         string
	Spec       Spec
	Status     Status
	Error      string
	TotalCells int
	DoneCells  int
	// Points is the first machine's completed sweep series in ladder
	// order — the whole result for a single-machine job; nil until the
	// job is done.
	Points []metrics.Point
	// Curves is one completed series per machine, in Spec order; nil
	// until the job is done. Curves[0] aliases Points.
	Curves [][]metrics.Point
}

// Stats is a snapshot of queue traffic for /debug/vars: current state
// gauges plus cumulative cell counters. CellsLoaded counts cells
// restored from the artifact store (work NOT redone after a restart);
// CellsComputed counts cells that ran the pipeline.
type Stats struct {
	Queued        int64
	Running       int64
	Done          int64
	Failed        int64
	Cancelled     int64
	CellsLoaded   int64
	CellsComputed int64
}

// Config shapes a Manager.
type Config struct {
	// Dir is where job files persist. Required.
	Dir string
	// Service executes the cells; its memo cache should share the same
	// Store via SetBackend so measurements are durable too. Required.
	Service *experiments.Service
	// Store persists per-cell predictions. Required — durability is the
	// point of the queue.
	Store *store.Store
	// Workers bounds concurrently executing jobs; ≤ 0 selects 1.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; ≤ 0 selects 64.
	QueueDepth int
	// Dispatch, when non-nil, executes ladder points remotely (a
	// coordinator sharding cells across worker replicas) instead of
	// through Service. Cells still persist per content address in the
	// LOCAL Store as results land, so crash resume works identically:
	// completed cells load from disk, only missing cells re-dispatch.
	Dispatch PointRunner
}

// PointRunner executes one measurement group — benchmark/size at one
// ladder point, under every named machine — returning one exact total
// time per machine in machines order. workload carries a composed
// workload's spec JSON (nil for registry benchmarks), letting the
// runner synthesize the program on whatever node executes the point.
// *cluster.Coordinator implements it; jobs declares the interface so
// the dependency points outward.
type PointRunner interface {
	RunPoint(ctx context.Context, bench string, workload []byte, sz benchmarks.Size, threads int, machines []string) ([]vtime.Time, error)
}

// Manager owns the queue, the worker pool, and the persisted job set.
type Manager struct {
	cfg   Config
	base  context.Context
	stop  context.CancelFunc
	queue chan string
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	doneJobs      atomic.Int64
	failedJobs    atomic.Int64
	cancelledJobs atomic.Int64
	cellsLoaded   atomic.Int64
	cellsComputed atomic.Int64

	// cellHook, when set (tests only), runs before each cell executes;
	// it lets the crash/resume test freeze a job mid-grid.
	cellHook func(jobID string, cell int)
}

// SetCellHook installs a hook that runs before each grid cell executes.
// Test instrumentation only: it lets cancellation and crash/restart
// tests freeze a job deterministically mid-grid. Call it before any
// job is submitted; the hook must not call back into the Manager.
func (m *Manager) SetCellHook(hook func(jobID string, cell int)) {
	m.cellHook = hook
}

// maxJobFileBytes caps how large a persisted job file Open will read:
// the directory is semi-trusted input after a restart, and a job file
// is a few hundred bytes of JSON — anything near the cap is garbage.
const maxJobFileBytes = 1 << 20

// Open loads the persisted job set from cfg.Dir, re-enqueues every
// incomplete job (queued or running at the time of the crash/shutdown),
// and starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" || cfg.Service == nil || cfg.Store == nil {
		return nil, errors.New("jobs: Dir, Service, and Store are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create dir: %w", err)
	}
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		base:  base,
		stop:  stop,
		queue: make(chan string, cfg.QueueDepth),
		jobs:  make(map[string]*Job),
	}
	if err := m.loadAll(); err != nil {
		stop()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// loadAll restores the persisted job set and re-enqueues incomplete
// jobs in ID order (deterministic resume).
func (m *Manager) loadAll() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: scan dir: %w", err)
	}
	var resume []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		jf, err := readJobFile(filepath.Join(m.cfg.Dir, name))
		if err != nil {
			// A torn or hostile job file costs that job, not the
			// manager; leave it on disk for postmortems.
			continue
		}
		j := &Job{
			id:     jf.ID,
			spec:   jf.Spec,
			status: jf.Status,
			errMsg: jf.Error,
			done:   jf.Done,
		}
		if jf.Status == StatusDone {
			// One curve per machine: the full ladder for exact jobs, the
			// persisted anchors for fitted ones (readJobFile verified the
			// count divides evenly).
			perCurve := len(jf.Points) / len(jf.Spec.machineNames())
			j.points = splitCurves(recordsToPoints(jf.Points), perCurve)
		}
		m.jobs[jf.ID] = j
		if !jf.Status.Terminal() {
			j.status = StatusQueued
			j.done = 0
			resume = append(resume, jf.ID)
		}
	}
	sort.Strings(resume)
	for _, id := range resume {
		select {
		case m.queue <- id:
		default:
			// Queue full on resume: the job stays persisted as queued
			// and will re-enter on the next restart. With the default
			// depth this needs >64 simultaneously incomplete jobs.
		}
	}
	return nil
}

// Submit validates, resolves, persists, and enqueues one sweep job,
// returning its ID; a spec that fails resolution returns the resolver's
// *request.Error. The spec is resolved before anything is written: the
// derived name, the normalized workload spec, defaults, the ladder and
// the mode are substituted, so the persisted spec — and therefore every
// content address derived from it — is stable across restarts.
func (m *Manager) Submit(spec Spec) (string, error) {
	rs, apiErr := request.Sweep(spec).Resolve()
	if apiErr != nil {
		return "", apiErr
	}
	spec.Benchmark = rs.Bench.Name()
	spec.Workload = request.WorkloadJSON(rs.Bench)
	spec.Size = rs.Size.N
	spec.Iters = rs.Size.Iters
	spec.Procs = rs.Procs
	spec.Mode = rs.Mode

	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("jobs: id: %w", err)
	}
	id := "j-" + hex.EncodeToString(raw[:])

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", errors.New("jobs: manager closed")
	}
	j := &Job{id: id, spec: spec, status: StatusQueued}
	m.jobs[id] = j
	m.mu.Unlock()

	if err := m.persist(j); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return "", err
	}
	select {
	case m.queue <- id:
	default:
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		os.Remove(m.jobPath(id))
		return "", errors.New("jobs: queue full")
	}
	return id, nil
}

// Get returns a snapshot of the job, if it exists.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// List returns snapshots of every known job, sorted by ID.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.snapshotLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (m *Manager) snapshotLocked(j *Job) Snapshot {
	s := Snapshot{
		ID:         j.id,
		Spec:       j.spec,
		Status:     j.status,
		Error:      j.errMsg,
		TotalCells: len(j.spec.machineNames()) * len(j.spec.Procs),
		DoneCells:  j.done,
	}
	if j.status == StatusDone {
		s.Curves = make([][]metrics.Point, len(j.points))
		for i, curve := range j.points {
			s.Curves[i] = append([]metrics.Point(nil), curve...)
		}
		s.Points = s.Curves[0]
	}
	return s
}

// Cancel stops a job: a queued job is marked cancelled before it runs,
// a running job's context is cancelled (the pipeline unwinds at its
// next safe point). Cancelling a terminal job is a no-op reporting the
// final state.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Snapshot{}, false
	}
	if j.status.Terminal() {
		s := m.snapshotLocked(j)
		m.mu.Unlock()
		return s, true
	}
	j.userStop = true
	if j.status == StatusQueued {
		j.status = StatusCancelled
		m.cancelledJobs.Add(1)
		_ = m.persistLocked(j) // see persistLocked
	}
	if j.cancel != nil {
		j.cancel()
	}
	s := m.snapshotLocked(j)
	m.mu.Unlock()
	return s, true
}

// Stats reports queue gauges and cumulative cell counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	var queued, running int64
	for _, j := range m.jobs {
		switch j.status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		}
	}
	m.mu.Unlock()
	return Stats{
		Queued:        queued,
		Running:       running,
		Done:          m.doneJobs.Load(),
		Failed:        m.failedJobs.Load(),
		Cancelled:     m.cancelledJobs.Load(),
		CellsLoaded:   m.cellsLoaded.Load(),
		CellsComputed: m.cellsComputed.Load(),
	}
}

// Close stops the workers and returns once they exit. Running jobs are
// interrupted mid-cell and deliberately left persisted as "running" —
// Close is crash-shaped, so the restart path (resume from persisted
// partials) is the only completion path and gets exercised constantly,
// not just after real crashes.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

func (m *Manager) jobPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".json")
}

// persist writes the job's current state atomically.
func (m *Manager) persist(j *Job) error {
	m.mu.Lock()
	jf := m.jobFileLocked(j)
	m.mu.Unlock()
	return m.writeJobFile(jf)
}

// persistLocked writes the job's state while the caller holds m.mu, for
// terminal states: until the caller unlocks, no Get or List can report
// the state, so a client never learns that a job ended before its file
// says so — a crash in between would let Open resume it. A failed write
// costs only that durability, so callers publish the state anyway.
func (m *Manager) persistLocked(j *Job) error {
	return m.writeJobFile(m.jobFileLocked(j))
}

// jobFileLocked is the job's persisted form; the caller holds m.mu.
func (m *Manager) jobFileLocked(j *Job) jobFile {
	jf := jobFile{
		ID:     j.id,
		Spec:   j.spec,
		Status: j.status,
		Error:  j.errMsg,
		Done:   j.done,
	}
	if j.status == StatusDone {
		for _, curve := range j.points {
			jf.Points = append(jf.Points, pointsToRecords(curve)...)
		}
	}
	return jf
}

// writeJobFile replaces the job's file with jf atomically.
func (m *Manager) writeJobFile(jf jobFile) error {
	body, err := json.Marshal(jf)
	if err != nil {
		return fmt.Errorf("jobs: encode: %w", err)
	}
	f, err := os.CreateTemp(m.cfg.Dir, "job-*.tmp")
	if err != nil {
		return fmt.Errorf("jobs: persist: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, m.jobPath(jf.ID))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: persist: %w", err)
	}
	return nil
}

func readJobFile(path string) (jobFile, error) {
	info, err := os.Stat(path)
	if err != nil {
		return jobFile{}, err
	}
	if info.Size() > maxJobFileBytes {
		return jobFile{}, fmt.Errorf("jobs: job file %s is %d bytes, cap %d", path, info.Size(), maxJobFileBytes)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return jobFile{}, err
	}
	var jf jobFile
	if err := json.Unmarshal(raw, &jf); err != nil {
		return jobFile{}, err
	}
	if jf.ID == "" || filepath.Base(path) != jf.ID+".json" {
		return jobFile{}, errors.New("jobs: job file ID does not match its name")
	}
	switch jf.Status {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
	default:
		return jobFile{}, fmt.Errorf("jobs: unknown status %q", jf.Status)
	}
	// The ladder and machine ceilings are the resolver's, applied when
	// the job runs; a persisted ladder is never empty.
	if len(jf.Spec.Procs) == 0 {
		return jobFile{}, errors.New("jobs: job has an empty ladder")
	}
	if jf.Status == StatusDone {
		nm := len(jf.Spec.machineNames())
		if jf.Spec.Mode == request.ModeFitted {
			// A fitted job persists only its anchors: at least one per
			// curve, machine-major, never more than the full grid.
			if len(jf.Points) == 0 || len(jf.Points)%nm != 0 || len(jf.Points) > nm*len(jf.Spec.Procs) {
				return jobFile{}, fmt.Errorf("jobs: done fitted job has %d points for %d machines × %d ladder entries",
					len(jf.Points), nm, len(jf.Spec.Procs))
			}
		} else if want := nm * len(jf.Spec.Procs); len(jf.Points) != want {
			return jobFile{}, fmt.Errorf("jobs: done job has %d points, want %d", len(jf.Points), want)
		}
	}
	return jf, nil
}

// worker drains the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.base.Done():
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob executes one job's grid, persisting progress per cell.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.status != StatusQueued {
		// Cancelled while queued (or file vanished); nothing to run.
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.base)
	defer cancel()
	j.status = StatusRunning
	j.cancel = cancel
	j.done = 0
	nm := len(j.spec.machineNames())
	m.mu.Unlock()
	m.persist(j)

	// A resumed job's spec comes from a file on disk, so every run passes
	// the resolver again — ceilings included — before a cell is allocated.
	var err error
	rs, apiErr := request.Sweep(j.spec).Resolve()
	if apiErr != nil {
		err = apiErr
	} else {
		m.mu.Lock()
		j.points = make([][]metrics.Point, nm)
		j.havePt = make([][]bool, nm)
		for mi := range j.points {
			j.points[mi] = make([]metrics.Point, len(j.spec.Procs))
			j.havePt[mi] = make([]bool, len(j.spec.Procs))
		}
		m.mu.Unlock()
		if rs.Mode == request.ModeFitted {
			err = m.runFitted(ctx, j, rs.Bench, rs.Size, rs.Envs)
		} else {
			err = m.runCells(ctx, j, rs.Bench, rs.Size, rs.Envs)
		}
	}

	m.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		j.status = StatusDone
		if j.spec.Mode != request.ModeFitted {
			j.done = nm * len(j.spec.Procs)
		}
		// A fitted job's done count stays at anchors × machines — the
		// cells actually simulated; the gap to TotalCells is the work
		// the fit saved.
		m.doneJobs.Add(1)
	case j.userStop:
		j.status = StatusCancelled
		j.errMsg = "cancelled"
		m.cancelledJobs.Add(1)
	case errors.Is(err, context.Canceled) && m.base.Err() != nil:
		// Manager shutdown: leave the job persisted as running so the
		// next Open resumes it — do not write a terminal state.
		j.status = StatusRunning
		m.mu.Unlock()
		return
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		m.failedJobs.Add(1)
	}
	_ = m.persistLocked(j) // see persistLocked
	m.mu.Unlock()
}

// runCells fans the job's grid (machines × ladder) across the cell
// pool. Each cell first consults the artifact store for its
// content-addressed prediction — a hit restores the result without
// touching the pipeline (that is the resume path after a crash) — and
// otherwise computes it through the experiment engine and persists it
// before reporting done.
func (m *Manager) runCells(ctx context.Context, j *Job, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env) error {
	procs := j.spec.Procs
	if m.cfg.Dispatch != nil {
		return pool.Run(m.cfg.Service.Workers(), len(procs), func(pi int) error {
			return m.runDispatchedPoint(ctx, j, b, sz, envs, pi)
		})
	}
	return pool.Run(m.cfg.Service.Workers(), len(envs)*len(procs), func(c int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		mi, pi := c/len(procs), c%len(procs)
		return m.runCell(ctx, j, b, sz, envs[mi], mi, pi)
	})
}

// runCell executes machine mi's cell at ladder index pi: store lookup
// first, otherwise one prediction through the Service, persisted under
// the cell's own content address the moment it lands.
func (m *Manager) runCell(ctx context.Context, j *Job, b benchmarks.Benchmark, sz benchmarks.Size, env machine.Env, mi, pi int) error {
	if m.cellHook != nil {
		m.cellHook(j.id, mi*len(j.spec.Procs)+pi)
	}
	n := j.spec.Procs[pi]
	key := experiments.MeasurementKey(b.Name(), sz, n, core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if pt, ok := m.loadCell(key, env, n); ok {
		return m.finishCell(j, mi, pi, pt)
	}
	pred, err := m.cfg.Service.Predict(ctx, b, sz, n, pcxx.ActualSize, env.Config)
	if err != nil {
		return err
	}
	return m.storeCell(j, key, env, mi, pi, n, pred.Result.TotalTime)
}

// runDispatchedPoint executes one ladder point through the Dispatch
// runner: store lookups first (the resume path — a cell persisted
// before a coordinator crash is never re-dispatched), then ONE shard
// covering exactly the missing machines. The runner returns exact
// integers, so the persisted records are byte-identical to the ones the
// local paths write.
func (m *Manager) runDispatchedPoint(ctx context.Context, j *Job, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env, pi int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	procs := j.spec.Procs
	n := procs[pi]
	key := experiments.MeasurementKey(b.Name(), sz, n, core.MeasureOptions{SizeMode: pcxx.ActualSize})
	var missing []int // machine indices whose cell is not in the store
	for mi := range envs {
		if m.cellHook != nil {
			m.cellHook(j.id, mi*len(procs)+pi)
		}
		if pt, ok := m.loadCell(key, envs[mi], n); ok {
			if err := m.finishCell(j, mi, pi, pt); err != nil {
				return err
			}
			continue
		}
		missing = append(missing, mi)
	}
	if len(missing) == 0 {
		return nil
	}
	names := make([]string, len(missing))
	for i, mi := range missing {
		names[i] = envs[mi].Name
	}
	times, err := m.cfg.Dispatch.RunPoint(ctx, b.Name(), j.spec.Workload, sz, n, names)
	if err != nil {
		return err
	}
	if len(times) != len(missing) {
		return fmt.Errorf("jobs: dispatch returned %d cells for %d machines", len(times), len(missing))
	}
	for i, mi := range missing {
		if err := m.storeCell(j, key, envs[mi], mi, pi, n, times[i]); err != nil {
			return err
		}
	}
	return nil
}

// runFitted executes a fitted job: the model package's residual-driven
// refinement picks which ladder points to truly simulate, and each
// selected anchor runs through the SAME per-point executors the exact
// grid uses — store lookup first (the resume path), then dispatch or
// per-cell simulation — so anchors persist under the same content
// addresses as exact cells. After a SIGKILL the deterministic
// refinement re-requests exactly the anchors the interrupted run
// persisted; those load from the store and only the remainder computes.
// On success the job's curves collapse to the anchor series — all that
// needs persisting, since model.Replay re-derives the fitted ladder
// bit-for-bit at render time.
func (m *Manager) runFitted(ctx context.Context, j *Job, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env) error {
	procs := j.spec.Procs
	sim := func(ctx context.Context, n int) ([]vtime.Time, error) {
		pi := -1
		for i, p := range procs {
			if p == n {
				pi = i
				break
			}
		}
		if pi < 0 {
			return nil, fmt.Errorf("jobs: fitted anchor p=%d is not on the ladder", n)
		}
		if err := m.simLadderPoint(ctx, j, b, sz, envs, pi); err != nil {
			return nil, err
		}
		m.mu.Lock()
		times := make([]vtime.Time, len(envs))
		for mi := range envs {
			times[mi] = j.points[mi][pi].Time
		}
		m.mu.Unlock()
		return times, nil
	}
	res, err := model.Run(ctx, procs, len(envs), sim, model.Options{})
	if err != nil {
		return err
	}
	m.mu.Lock()
	j.points = make([][]metrics.Point, len(envs))
	for mi := range envs {
		curve := make([]metrics.Point, len(res.Anchors))
		for ai, a := range res.Anchors {
			curve[ai] = metrics.Point{Procs: a.Procs, Time: a.Times[mi]}
		}
		j.points[mi] = curve
	}
	m.mu.Unlock()
	return nil
}

// simLadderPoint executes every machine's cell at ladder index pi
// through whichever executor the manager is configured with — the same
// split runCells makes for the whole grid, applied to one point.
func (m *Manager) simLadderPoint(ctx context.Context, j *Job, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env, pi int) error {
	if m.cfg.Dispatch != nil {
		return m.runDispatchedPoint(ctx, j, b, sz, envs, pi)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for mi, env := range envs {
		if err := m.runCell(ctx, j, b, sz, env, mi, pi); err != nil {
			return err
		}
	}
	return nil
}

// loadCell restores one cell's prediction from the artifact store, if
// present and decodable. An undecodable record under a verified
// checksum is format skew; the caller recomputes and overwrites.
func (m *Manager) loadCell(key core.CacheKey, env machine.Env, n int) (metrics.Point, bool) {
	raw, ok := m.cfg.Store.Get(core.CanonicalPrediction(key, env.Config))
	if !ok {
		return metrics.Point{}, false
	}
	var rec cellRecord
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Procs != n {
		return metrics.Point{}, false
	}
	m.cellsLoaded.Add(1)
	return metrics.Point{Procs: rec.Procs, Time: vtime.Time(rec.TotalNs)}, true
}

// storeCell persists one computed cell's exact total under its content
// address and records it done.
func (m *Manager) storeCell(j *Job, key core.CacheKey, env machine.Env, mi, pi, n int, total vtime.Time) error {
	rec, err := json.Marshal(cellRecord{Procs: n, TotalNs: int64(total)})
	if err != nil {
		return err
	}
	m.cfg.Store.Put(core.CanonicalPrediction(key, env.Config), rec)
	m.cellsComputed.Add(1)
	return m.finishCell(j, mi, pi, metrics.Point{Procs: n, Time: total})
}

// finishCell records one completed cell and persists progress.
func (m *Manager) finishCell(j *Job, mi, pi int, pt metrics.Point) error {
	m.mu.Lock()
	if !j.havePt[mi][pi] {
		j.havePt[mi][pi] = true
		j.points[mi][pi] = pt
		j.done++
	}
	m.mu.Unlock()
	return m.persist(j)
}

func pointsToRecords(pts []metrics.Point) []cellRecord {
	out := make([]cellRecord, len(pts))
	for i, p := range pts {
		out[i] = cellRecord{Procs: p.Procs, TotalNs: int64(p.Time)}
	}
	return out
}

func recordsToPoints(recs []cellRecord) []metrics.Point {
	out := make([]metrics.Point, len(recs))
	for i, r := range recs {
		out[i] = metrics.Point{Procs: r.Procs, Time: vtime.Time(r.TotalNs)}
	}
	return out
}

// splitCurves slices a flat machine-major point list back into one
// curve per machine. readJobFile has already verified the length is a
// multiple of the ladder length.
func splitCurves(flat []metrics.Point, ladder int) [][]metrics.Point {
	out := make([][]metrics.Point, 0, len(flat)/ladder)
	for lo := 0; lo < len(flat); lo += ladder {
		out = append(out, flat[lo:lo+ladder])
	}
	return out
}
