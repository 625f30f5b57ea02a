package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Service is the experiment engine packaged as a long-lived component:
// a shared measurement memo cache plus the grid runner, reusable across
// many independent requests instead of one experiment run. It backs the
// `extrap serve` HTTP API and `extrap experiment -workload` — every
// prediction goes through exactly the pipeline the paper's experiments
// use, and repeated requests for the same (benchmark, size, threads)
// share one measurement through the cache.
//
// Measurements stay resident as compact immutable XTRP2 bytes and every
// prediction runs the bounded-memory streaming pipeline (incremental
// decode → streaming translate → streaming simulate, fast-forwarding
// steady loop iterations), so a request's transient footprint is the
// translation buffer rather than the materialized trace.
//
// A Service is safe for concurrent use.
type Service struct {
	cache   *core.TraceCache
	workers int
}

// NewService returns a Service whose sweeps fan out over at most workers
// goroutines (≤ 0 selects GOMAXPROCS) and whose memo cache retains at
// most cacheEntries measurements, evicting least-recently-used beyond
// that (≤ 0 means unbounded — only appropriate for fixed key
// populations, never for a server fed client-controlled parameters).
// maxTraceBytes (> 0) rejects any measurement whose encoding exceeds
// the budget with trace.ErrTraceTooLarge.
func NewService(workers, cacheEntries int, maxTraceBytes int64) *Service {
	return &Service{cache: core.NewEncodedTraceCache(cacheEntries, maxTraceBytes), workers: workers}
}

// CacheStats reports the memo cache's lookup effectiveness: lookups
// served from memory and measurement runs performed.
func (s *Service) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// SetBackend attaches a durable tier (typically a *store.Store) behind
// the Service's memo cache: memory misses consult the backend before
// re-measuring and fresh measurements are written through, so a
// restarted service replays prior work at disk speed. Attach before the
// Service starts handling requests; results are byte-identical with or
// without a backend.
func (s *Service) SetBackend(b core.TraceBackend) { s.cache.SetBackend(b) }

// CompressionStats reports the raw (flat fixed-record, see
// trace.EncodedSize) and actual encoded bytes of measurements the cache
// has encoded so far.
func (s *Service) CompressionStats() core.CompressionStats { return s.cache.Compression() }

// Workers reports the sweep fan-out bound the Service was built with
// (≤ 0 means GOMAXPROCS), so composed components — notably the jobs
// queue — can match their cell parallelism to the engine's.
func (s *Service) Workers() int { return s.workers }

// Predict predicts one benchmark configuration on one target
// environment: measure (or reuse) the threads-thread trace and run it
// through the streaming pipeline under cfg. The context bounds every
// stage, including the measurement (polled at safe points in the
// runtime); a measurement aborted by the caller's deadline is not
// memoized — the error goes to that caller alone and the next request
// re-measures under its own deadline — so a timeout never poisons the
// cache.
func (s *Service) Predict(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfg sim.Config) (*core.Prediction, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	mopts := core.MeasureOptions{SizeMode: mode}
	enc, err := s.cache.Encoded(cacheKey(b.Name(), size, threads, mopts), func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, b.Factory(size)(threads), mopts)
	})
	if err != nil {
		return nil, err
	}
	return core.ExtrapolateEncoded(ctx, enc, cfg)
}

// PointRunner runs one ladder point: benchmark b at size sz, measured at
// threads threads and simulated on threads processors of every machine in
// envs, answering one exact total time per machine in envs order. Which
// runner serves a process is chosen once, by cluster role: a solo server
// or worker runs points on its own *Service, a coordinator dispatches
// them to worker replicas (*cluster.Coordinator). Every runner answers
// the same integers, so where a point ran never shows in the output.
type PointRunner interface {
	RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, threads int, envs []machine.Env) ([]vtime.Time, error)
}

// RunPoint is the in-process ladder-point executor: the measurement is
// taken (or found in the cache or its backend) once, then each machine's
// model is simulated over it through Predict — the call the exact grid
// runner makes per cell — so every total is byte-identical to the exact
// sweep's cell for the same parameters.
func (s *Service) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, threads int, envs []machine.Env) ([]vtime.Time, error) {
	times := make([]vtime.Time, len(envs))
	for i, env := range envs {
		pred, err := s.Predict(ctx, b, sz, threads, pcxx.ActualSize, env.Config)
		if err != nil {
			return nil, err
		}
		times[i] = pred.Result.TotalTime
	}
	return times, nil
}

// SweepGrid runs several sweep jobs as one grid, returning one series
// per job in job order. Every cell runs the per-cell path of Predict:
// cells that name the same benchmark, size, and thread count share one
// measurement through the cache, and each streams its own prediction
// from the cached bytes, fast-forwarding steady loop iterations.
// Output is byte-identical to running the jobs one at a time, at any
// worker count.
func (s *Service) SweepGrid(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	return runGrid(ctx, s.cache, s.workers, jobs)
}

// SweepGridFitted answers each job's ladder through the analytic fitted
// path: only the sparse anchor set the model package's refinement
// selects is simulated (through the same cache and memoization as
// SweepGrid), and the remaining cells evaluate the least-squares fit,
// rounded to whole virtual nanoseconds. Anchor cells carry the exact
// simulated time; fitted cells are approximations. Output is
// deterministic and byte-identical at any worker count.
func (s *Service) SweepGridFitted(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	return runGridFitted(ctx, s.cache, s.workers, jobs)
}
