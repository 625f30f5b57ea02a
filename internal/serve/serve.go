// Package serve exposes the extrapolation pipeline as a JSON-over-HTTP
// service: POST /v1/extrapolate predicts a single {benchmark, size,
// threads, procs, machine} configuration, POST /v1/sweep a processor
// ladder, and GET /v1/benchmarks and /v1/machines enumerate the
// registries. Requests run through the shared experiment engine
// (measurement memo cache + ladder-point executor), so repeated and
// concurrent requests for the same configuration share one measurement
// and return byte-identical bodies.
//
// Operationally the server is load-shaped: compute endpoints pass
// through a bounded in-flight limiter (excess requests queue briefly,
// then are shed with 429), every request carries a deadline threaded
// into the pipeline via context, request/latency/cache counters are
// exported at GET /debug/vars, net/http/pprof can be mounted under
// /debug/pprof/, and shutdown drains in-flight requests gracefully.
// Memory is bounded too: measurements are cached as compact encoded
// bytes, predictions run the streaming pipeline over bounded cursors,
// and a measurement whose encoding exceeds MaxTraceBytes is rejected
// with 413 trace_too_large.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	runtimepprof "runtime/pprof"
	"strconv"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/cluster"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/jobs"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/request"
	"extrap/internal/store"
	"extrap/internal/trace"
)

// Cluster roles. A solo server (the default) owns its whole pipeline; a
// coordinator partitions sweeps into measured-trace shards and
// dispatches them to worker replicas (falling back to local execution
// when every peer is down); a worker accepts shards on internal
// endpoints and executes them through its own engine. Distributed
// output is byte-identical to solo output: shard results are exact
// virtual-nanosecond integers merged through the same response builder.
const (
	RoleSolo        = "solo"
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// Config shapes a Server.
type Config struct {
	// MaxInFlight bounds concurrently executing compute requests
	// (extrapolate and sweep); ≤ 0 selects the default of 32.
	MaxInFlight int
	// QueueWait is how long an excess compute request may wait for a
	// slot before being shed with 429; 0 sheds immediately.
	QueueWait time.Duration
	// RequestTimeout is the per-request pipeline budget; ≤ 0 selects
	// the default of 30s.
	RequestTimeout time.Duration
	// Workers bounds the ladder points a sweep or async job runs at
	// once; ≤ 0 selects GOMAXPROCS, or on a coordinator, whose points
	// wait on its peers, request.MaxLadderLen, so a whole exact ladder
	// is in flight.
	Workers int
	// CacheEntries bounds the measurement memo cache (LRU-evicted past
	// the bound) so clients iterating request parameters cannot grow
	// server memory without limit; ≤ 0 selects the default of 256.
	CacheEntries int
	// MaxTraceBytes bounds the encoded size of any single cached
	// measurement: a request whose measurement encodes past the budget
	// is rejected with 413 trace_too_large (and the rejection is
	// memoized — the measurement is deterministic, so it would exceed
	// the budget every time). Cached measurements are held as compact
	// XTRP2 bytes and predictions stream through bounded cursors, so
	// this budget, times CacheEntries, bounds cache memory. 0 selects
	// the default of 256 MiB; < 0 disables the budget.
	MaxTraceBytes int64
	// StoreDir, when non-empty, roots the durable artifact store:
	// measurement traces and job cell results persist there (content-
	// addressed, checksummed), the measurement cache reads through to it,
	// and the async jobs API (POST /v1/jobs) is enabled with job state
	// under StoreDir/jobs. Empty disables both — the server is then
	// purely in-memory, and the jobs endpoints answer 503.
	StoreDir string
	// StoreBytes bounds the artifact store's on-disk footprint; least
	// recently used artifacts are evicted past it. ≤ 0 means unlimited.
	StoreBytes int64
	// JobWorkers bounds concurrently executing async jobs; ≤ 0 selects 1.
	// Each job additionally fans its ladder points across Workers.
	JobWorkers int
	// Role selects the cluster role: RoleSolo (or empty — the default),
	// RoleCoordinator, or RoleWorker. See the Role* constants.
	Role string
	// Peers configures the cluster topology. For a coordinator: the
	// worker replicas' base URLs ("http://host:port"), at least one.
	// For a worker: optionally one peer (typically the coordinator) to
	// read measurement artifacts through — a read-through tier behind
	// the local store, so a re-routed shard reuses an already-measured
	// trace instead of re-measuring it. Solo servers take no peers.
	Peers []string
	// ClusterPoll overrides the coordinator's shard poll interval
	// (tests); ≤ 0 selects the cluster default.
	ClusterPoll time.Duration
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/.
	EnablePprof bool
	// Logger receives structured request logs; nil selects a text
	// logger on stderr.
	Logger *slog.Logger
}

// shutdownGrace bounds how long Serve waits for in-flight requests on
// shutdown.
const shutdownGrace = 10 * time.Second

// Server is the extrapolation service.
type Server struct {
	cfg Config
	svc *experiments.Service
	// points runs every ladder point of exact and fitted sweeps and of
	// async jobs (an exact ladder svc.Workers() points at a time): svc
	// itself on a solo server or worker, coord on a coordinator. New
	// chooses it once, by role.
	points experiments.PointRunner
	lim    *limiter
	met    *metricsSet
	log    *slog.Logger
	store  *store.Store         // nil unless StoreDir is set
	jobs   *jobs.Manager        // nil unless StoreDir is set
	coord  *cluster.Coordinator // nil unless Role is coordinator
	worker *cluster.Worker      // nil unless Role is worker
}

// New returns a Server with cfg's zero fields defaulted. With a
// StoreDir it opens the durable artifact store (warm-starting from
// whatever a previous process persisted), plugs it behind the
// measurement cache, and starts the async jobs manager — which
// immediately re-enqueues any jobs a previous process left incomplete.
// Call Close when done to stop the background goroutines and persist
// the store index.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxTraceBytes == 0 {
		cfg.MaxTraceBytes = 256 << 20
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.Role == "" {
		cfg.Role = RoleSolo
	}
	switch cfg.Role {
	case RoleSolo:
		if len(cfg.Peers) > 0 {
			return nil, fmt.Errorf("serve: a solo server takes no peers (got %d); set Role", len(cfg.Peers))
		}
	case RoleCoordinator:
		if len(cfg.Peers) == 0 {
			return nil, errors.New("serve: a coordinator needs at least one peer")
		}
		if cfg.Workers <= 0 {
			cfg.Workers = request.MaxLadderLen
		}
	case RoleWorker:
		if len(cfg.Peers) > 1 {
			return nil, fmt.Errorf("serve: a worker takes at most one peer to read artifacts through, got %d", len(cfg.Peers))
		}
	default:
		return nil, fmt.Errorf("serve: unknown role %q (want %s, %s, or %s)", cfg.Role, RoleSolo, RoleCoordinator, RoleWorker)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s := &Server{
		cfg: cfg,
		svc: experiments.NewService(cfg.Workers, cfg.CacheEntries, cfg.MaxTraceBytes),
		lim: newLimiter(cfg.MaxInFlight, cfg.QueueWait),
		met: newMetricsSet(),
		log: logger,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreBytes)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	// The measurement cache's durable tier: local store, and for a
	// worker with a peer, a read-through to the peer's artifacts behind
	// it — so a shard re-routed after another worker's death can pull
	// the already-measured trace instead of re-measuring.
	var backend core.TraceBackend
	switch {
	case s.store != nil && cfg.Role == RoleWorker && len(cfg.Peers) == 1:
		backend = &cluster.ChainBackend{
			Local:  s.store,
			Remote: cluster.NewRemoteBackend(cfg.Peers[0], cfg.MaxTraceBytes),
		}
	case s.store != nil:
		backend = s.store
	case cfg.Role == RoleWorker && len(cfg.Peers) == 1:
		backend = cluster.NewRemoteBackend(cfg.Peers[0], cfg.MaxTraceBytes)
	}
	if backend != nil {
		s.svc.SetBackend(backend)
	}
	s.points = s.svc
	switch cfg.Role {
	case RoleWorker:
		s.worker = cluster.NewWorker(s.svc, 0)
	case RoleCoordinator:
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Peers:        cfg.Peers,
			Service:      s.svc,
			PollInterval: cfg.ClusterPoll,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		// A coordinator's sweeps and async jobs shard their ladder
		// points across its peers; job cells still persist in the LOCAL
		// store, so a coordinator SIGKILL resumes with completed points
		// loaded from disk, not re-dispatched.
		s.coord, s.points = coord, coord
	}
	if s.store != nil {
		mgr, err := jobs.Open(jobs.Config{
			Dir:      filepath.Join(cfg.StoreDir, "jobs"),
			Service:  s.svc,
			Store:    s.store,
			Workers:  cfg.JobWorkers,
			Dispatch: s.points,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.jobs = mgr
	}
	return s, nil
}

// Close stops the jobs manager (running jobs stay persisted as running
// and resume on the next New with the same StoreDir) and closes the
// artifact store, persisting its index. Safe to call on a server
// without a store; not safe to use the server afterwards.
func (s *Server) Close() error {
	if s.jobs != nil {
		s.jobs.Close()
	}
	if s.worker != nil {
		s.worker.Close()
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Handler returns the service's routes behind the logging/metrics
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/extrapolate", s.limited("extrapolate", s.handleExtrapolate))
	mux.HandleFunc("POST /v1/sweep", s.limited("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("GET /v1/patterns", s.handlePatterns)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	if s.worker != nil {
		mux.HandleFunc("POST /v1/internal/shards", s.worker.HandleDispatch)
		mux.HandleFunc("GET /v1/internal/shards/{id}", s.worker.HandlePoll)
	}
	if s.store != nil {
		mux.HandleFunc("GET /v1/internal/artifacts/{keyhash}", cluster.ArtifactHandler(s.store))
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully: the listener closes, in-flight requests get up to
// shutdownGrace to finish, and Serve returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "grace", shutdownGrace)
	shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// instrument wraps the mux with request accounting and structured logs.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		s.met.requests.Add(r.URL.Path, 1)
		s.met.statuses.Add(statusClass(rec.status), 1)
		s.met.latencyUs.Add(dur.Microseconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", float64(dur.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// limited gates a compute handler behind the in-flight limiter, arms
// the per-request deadline that the pipeline observes, and runs the
// handler under the pprof label route=<route>, so CPU profiles split
// by route. route is a fixed name, never the request path, which
// clients control.
func (s *Server) limited(route string, h http.HandlerFunc) http.HandlerFunc {
	labels := runtimepprof.Labels("route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.lim.acquire(r.Context()) {
			s.met.rejected.Add(1)
			// Derive the back-off hint from queue depth against capacity
			// instead of a constant, so clients behind a pile-up spread out.
			w.Header().Set("Retry-After",
				strconv.Itoa(cluster.RetryAfterSeconds(s.lim.backlog(), s.cfg.MaxInFlight)))
			request.WriteError(w, request.Errorf(http.StatusTooManyRequests, "overloaded",
				"server at its in-flight limit; retry shortly"))
			return
		}
		defer s.lim.release()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		runtimepprof.Do(ctx, labels, func(ctx context.Context) {
			h(w, r.WithContext(ctx))
		})
	}
}

// handleExtrapolate serves POST /v1/extrapolate.
func (s *Server) handleExtrapolate(w http.ResponseWriter, r *http.Request) {
	var req ExtrapolateRequest
	if apiErr := request.DecodeJSON(r, &req, maxBodyBytes); apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	b, sz, env, procs, apiErr := req.resolve()
	if apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	cfg := env.Config
	cfg.Procs = procs
	pred, err := s.svc.Predict(r.Context(), b, sz, req.Threads, cfg)
	if err != nil {
		request.WriteError(w, pipelineError(err))
		return
	}
	resp := ExtrapolateResponse{
		Benchmark:    b.Name(),
		Machine:      env.Name,
		Size:         sz.N,
		Iters:        sz.Iters,
		Threads:      req.Threads,
		Procs:        procs,
		Measured1PMs: pred.Measured1P.Millis(),
		IdealMs:      pred.Ideal.Millis(),
		PredictedMs:  pred.Result.TotalTime.Millis(),
		Barriers:     pred.Result.Barriers,
		Messages:     pred.Result.Net.Messages,
	}
	if pred.Result.TotalTime > 0 {
		resp.Speedup = float64(pred.Measured1P) / float64(pred.Result.TotalTime)
	}
	bd := metrics.ComputeBreakdown(pred.Result)
	resp.Breakdown = BreakdownJSON{
		Compute:     bd.Compute,
		CommWait:    bd.CommWait,
		BarrierWait: bd.BarrierWait,
		Service:     bd.Service,
		CPUWait:     bd.CPUWait,
	}
	request.WriteJSON(w, http.StatusOK, resp)
}

// handleSweep serves POST /v1/sweep. Each ladder point runs through the
// server's point runner, measured once and simulated under every named
// machine; a request naming several machines answers one curve per
// machine, a single-machine request keeps the original response shape.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if apiErr := request.DecodeJSON(r, &req, maxBodyBytes); apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	rs, apiErr := req.resolve()
	if apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	b, sz, envs, ladder := rs.Bench, rs.Size, rs.Envs, rs.Procs
	var series [][]metrics.Point
	var res *model.Result
	var err error
	if rs.Mode == request.ModeFitted {
		// An analytic fit over anchors the refinement chooses, each one
		// ladder point run by the server's point runner. The fit itself is
		// deterministic arithmetic, so fitted responses are byte-identical
		// across worker counts and replicas.
		res, err = experiments.FitLadder(r.Context(), s.points, b, sz, envs, ladder)
	} else {
		series, err = experiments.RunLadder(r.Context(), s.points, s.svc.Workers(), b, sz, envs, ladder)
	}
	if err != nil {
		request.WriteError(w, pipelineError(err))
		return
	}
	one, many := renderSweep(b.Name(), sz.N, sz.Iters, req.Machine, req.Machines, series, res)
	if many != nil {
		request.WriteJSON(w, http.StatusOK, many)
		return
	}
	request.WriteJSON(w, http.StatusOK, one)
}

// renderSweep wraps a sweep's curves — the exact series, or the fitted
// result when res is non-nil — in the shape its request named: a
// request naming one machine (machineName) answers a SweepResponse, one
// naming several (machines) a MultiSweepResponse. It is the one wrapping
// for synchronous sweeps and done jobs alike.
func renderSweep(bench string, size, iters int, machineName string, machines []string, series [][]metrics.Point, res *model.Result) (*SweepResponse, *MultiSweepResponse) {
	curve := func(i int, name string) SweepResponse {
		if res != nil {
			return buildFittedSweepResponse(bench, name, size, iters, res, i)
		}
		return buildSweepResponse(bench, name, size, iters, series[i])
	}
	if len(machines) == 0 {
		r := curve(0, machineName)
		return &r, nil
	}
	mr := &MultiSweepResponse{Benchmark: bench, Size: size, Iters: iters, Curves: make([]SweepCurve, len(machines))}
	if res != nil {
		mr.Mode = request.ModeFitted
	}
	for i, name := range machines {
		c := curve(i, name)
		mr.Curves[i] = SweepCurve{Machine: name, Points: c.Points, Fit: c.Fit}
	}
	return nil, mr
}

// buildSweepResponse renders a sweep series. It is the single rendering
// path for both the synchronous /v1/sweep handler and completed async
// jobs, so a job's result is byte-identical to the synchronous response
// for the same request — the durability contract the store guarantees
// for the numbers extends through the JSON encoding.
func buildSweepResponse(bench, machineName string, size, iters int, points []metrics.Point) SweepResponse {
	speedups := metrics.Speedup(points)
	effs := metrics.Efficiency(points)
	resp := SweepResponse{
		Benchmark: bench,
		Machine:   machineName,
		Size:      size,
		Iters:     iters,
		Points:    make([]SweepPoint, len(points)),
	}
	for i, p := range points {
		resp.Points[i] = SweepPoint{
			Procs:       p.Procs,
			PredictedMs: p.Time.Millis(),
			Speedup:     speedups[i],
			Efficiency:  effs[i],
		}
	}
	return resp
}

// buildFittedSweepResponse renders curve ci of a fitted result in the
// sweep response shape, extending the exact renderer's fields with
// per-point provenance ("simulated" anchors vs "fitted" evaluations),
// ± prediction intervals, and the fit summary. The speedup baseline is
// the lowest-procs ladder point, which refinement always anchors, so
// baselines are exact in every fitted response; a non-positive
// predicted time renders speedup and efficiency as 0, mirroring
// metrics.Speedup's division guard.
func buildFittedSweepResponse(bench, machineName string, size, iters int, res *model.Result, ci int) SweepResponse {
	cf := res.Curves[ci]
	resp := SweepResponse{
		Benchmark: bench,
		Machine:   machineName,
		Size:      size,
		Iters:     iters,
		Mode:      request.ModeFitted,
		Points:    make([]SweepPoint, len(cf.Points)),
		Fit: &FitSummary{
			Basis:           model.BasisNames[:len(cf.Coeffs)],
			Coefficients:    cf.Coeffs,
			Anchors:         len(res.Anchors),
			Iterations:      res.Iterations,
			Converged:       res.Converged,
			Tolerance:       res.Tolerance,
			MaxRelResidual:  cf.MaxRelResidual,
			MeanRelResidual: cf.MeanRelResidual,
		},
	}
	base := cf.Points[0]
	for _, p := range cf.Points {
		if p.Procs < base.Procs {
			base = p
		}
	}
	for i, p := range cf.Points {
		sp := SweepPoint{Procs: p.Procs, PredictedMs: p.Value / 1e6}
		iv := p.Interval / 1e6
		sp.IntervalMs = &iv
		if p.Simulated {
			sp.Source = "simulated"
			sp.PredictedMs = p.Exact.Millis()
		} else {
			sp.Source = "fitted"
		}
		if p.Value > 0 && base.Value > 0 {
			sp.Speedup = base.Value / p.Value * float64(base.Procs)
			sp.Efficiency = sp.Speedup / float64(p.Procs)
		}
		resp.Points[i] = sp
	}
	return resp
}

// handleBenchmarks serves GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	all := benchmarks.All()
	out := make([]BenchmarkInfo, len(all))
	for i, b := range all {
		d := b.DefaultSize()
		out[i] = BenchmarkInfo{
			Name:         b.Name(),
			Description:  b.Description(),
			DefaultSize:  d.N,
			DefaultIters: d.Iters,
		}
	}
	request.WriteJSON(w, http.StatusOK, out)
}

// handleMachines serves GET /v1/machines.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	presets := machine.Presets()
	out := make([]MachineInfo, len(presets))
	for i, e := range presets {
		out[i] = MachineInfo{Name: e.Name, Description: e.Description}
	}
	request.WriteJSON(w, http.StatusOK, out)
}

// handlePatterns serves GET /v1/patterns: the compose DSL's pattern
// vocabulary, the built-in workload presets, and the validation
// ceilings — everything a client needs to author a "workload" object
// for the compute endpoints. The listing is static per release, so the
// bytes are stable across processes.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	resp := PatternsResponse{
		Patterns: compose.Patterns(),
		Limits: WorkloadLimits{
			MaxSpecBytes:    compose.MaxSpecBytes,
			MaxDepth:        compose.MaxDepth,
			MaxNodes:        compose.MaxNodes,
			MaxFanout:       compose.MaxFanout,
			MaxTasks:        compose.MaxTasks,
			MaxGridCells:    compose.MaxGridCells,
			MaxSteps:        compose.MaxSteps,
			MaxGrain:        compose.MaxGrain,
			MaxMessageBytes: compose.MaxMessageBytes,
			MaxImbalance:    compose.MaxImbalance,
			MaxSize:         compose.MaxScale,
			MaxIters:        compose.MaxSpecIters,
			MaxEvents:       compose.MaxSpecEvents,
		},
	}
	for _, p := range compose.Presets() {
		d := p.DefaultSize()
		resp.Presets = append(resp.Presets, WorkloadPresetInfo{
			Name:         p.Name(),
			Description:  p.Description(),
			Canonical:    p.Workload().Canonical(),
			DefaultSize:  d.N,
			DefaultIters: d.Iters,
		})
	}
	request.WriteJSON(w, http.StatusOK, resp)
}

// handleHealth serves GET /v1/healthz — a readiness probe for smoke
// tests and load balancers.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	request.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected mid-pipeline, so the abort is theirs,
// not the server's. Using it keeps aborted requests out of the 5xx
// bucket of responses_by_status (they count as 4xx), so server error
// rates reflect server failures only.
const statusClientClosedRequest = 499

// pipelineError maps a pipeline failure to a typed API error: the
// server-side deadline surfaces as 504, a client disconnect as 499, a
// measurement past the trace size budget as 413, and anything else as
// 422 (the input was well-formed but the configuration cannot be
// extrapolated).
func pipelineError(err error) *request.Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return request.Errorf(http.StatusGatewayTimeout, "timeout", "request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		return request.Errorf(statusClientClosedRequest, "client_closed_request", "request cancelled by client: %v", err)
	case errors.Is(err, trace.ErrTraceTooLarge):
		return request.Errorf(http.StatusRequestEntityTooLarge, "trace_too_large", "%v", err)
	}
	return request.Errorf(http.StatusUnprocessableEntity, "extrapolation_failed", "%v", err)
}
