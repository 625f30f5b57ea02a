package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
)

// Service is the experiment engine packaged as a long-lived component:
// a shared measurement/translation memo cache plus the grid runner,
// reusable across many independent requests instead of one experiment
// run. It backs the `extrap serve` HTTP API — every prediction the API
// returns goes through exactly the pipeline the paper's experiments use,
// and repeated requests for the same (benchmark, size, threads)
// share one measurement through the cache.
//
// A Service is safe for concurrent use.
type Service struct {
	cache   *core.TraceCache
	workers int
	batch   int
	replay  sim.ReplayMode
	bstats  BatchStats
}

// NewService returns a Service whose sweeps fan out over at most workers
// goroutines (≤ 0 selects GOMAXPROCS) and whose memo cache retains at
// most cacheEntries measurements, evicting least-recently-used beyond
// that (≤ 0 means unbounded — only appropriate for fixed key
// populations, never for a server fed client-controlled parameters).
func NewService(workers, cacheEntries int) *Service {
	return &Service{cache: core.NewBoundedTraceCache(cacheEntries), workers: workers}
}

// NewStreamingService returns a Service backed by an encoded trace
// cache: measurements stay resident as compact immutable encoded bytes
// (XTRP1 unless SetTraceFormat selects the loop-compacted XTRP2, as
// extrap serve does by default) and every prediction runs the bounded-memory streaming pipeline
// (incremental decode → streaming translate → streaming simulate).
// Predictions are byte-identical to the in-memory Service's, but a
// request's transient footprint is the translation buffer rather than
// the materialized trace, and maxTraceBytes (> 0) rejects any
// measurement whose encoding exceeds the budget with
// core.ErrTraceTooLarge. This is the right shape for long-lived
// servers fed client-controlled parameters.
func NewStreamingService(workers, cacheEntries int, maxTraceBytes int64) *Service {
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

// SetTraceFormat selects the wire format a streaming Service encodes
// cached measurements in (zero keeps XTRP1). Predictions are
// byte-identical across formats — the format only changes resident and
// durable bytes. Set before the Service starts handling requests.
func (s *Service) SetTraceFormat(f trace.Format) { s.cache.SetFormat(f) }

// TraceFormat reports the cache's encoding format.
func (s *Service) TraceFormat() trace.Format { return s.cache.Format() }

// CompressionStats reports the raw (XTRP1-equivalent) and actual
// encoded bytes of measurements the cache has encoded so far.
func (s *Service) CompressionStats() core.CompressionStats { return s.cache.Compression() }

// Workers reports the sweep fan-out bound the Service was built with
// (≤ 0 means GOMAXPROCS), so composed components — notably the jobs
// queue — can match their cell parallelism to the engine's.
func (s *Service) Workers() int { return s.workers }

// SetBatchSize enables batched sweep simulation: grid cells sharing a
// measurement advance up to k machine models per pass over the shared
// translated trace. k ≤ 1 keeps the per-cell path. Responses are
// byte-identical at any batch size. Set before the Service starts
// handling requests.
func (s *Service) SetBatchSize(k int) { s.batch = k }

// BatchSize reports the configured batch width (≤ 1 means per-cell).
func (s *Service) BatchSize() int { return s.batch }

// SetReplay selects how XTRP2-encoded measurements replay through the
// simulator: sim.ReplayPattern (the default — compiled pattern programs
// with steady-state fast-forward) or sim.ReplayEvent (flat event-by-
// event replay, the rollback/A-B knob). Predictions are byte-identical
// in both modes; the mode is stamped on every request's simulation
// config, service-wide, and is not part of any cache key. Set before
// the Service starts handling requests.
func (s *Service) SetReplay(m sim.ReplayMode) { s.replay = m }

// Replay reports the service-wide replay mode.
func (s *Service) Replay() sim.ReplayMode { return s.replay }

// BatchStats reports cumulative batched-sweep counters.
func (s *Service) BatchStats() BatchSnapshot { return s.bstats.Snapshot() }

// Extrapolate predicts one benchmark configuration on one target
// environment: measure (or reuse) the threads-thread trace, translate
// it, and simulate it under cfg. The context bounds every stage,
// including the measurement (polled at safe points in the runtime). A
// measurement aborted by the caller's deadline is not memoized — the
// error goes to that caller alone and the next request re-measures
// under its own deadline — so a timeout never poisons the cache.
func (s *Service) Extrapolate(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfg sim.Config) (*core.Outcome, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	cfg.Replay = s.replay
	mopts := core.MeasureOptions{SizeMode: mode}
	key := cacheKey(b.Name(), size, threads, mopts)
	measure := func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, b.Factory(size)(threads), mopts)
	}
	tr, err := s.cache.Measure(key, measure)
	if err != nil {
		return nil, err
	}
	pt, err := s.cache.Translated(key, measure)
	if err != nil {
		return nil, err
	}
	res, err := sim.SimulateContext(ctx, pt, cfg)
	if err != nil {
		return nil, err
	}
	return &core.Outcome{Measurement: tr, Parallel: pt, Result: res}, nil
}

// Predict is Extrapolate returning only the scalar prediction — the
// shape serving layers need. On a streaming Service the traces flow
// through bounded cursors and are never materialized; on an in-memory
// Service it delegates to Extrapolate. Both produce byte-identical
// predictions for the same request.
func (s *Service) Predict(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfg sim.Config) (*core.Prediction, error) {
	if !s.cache.Streams() {
		out, err := s.Extrapolate(ctx, b, size, threads, mode, cfg)
		if err != nil {
			return nil, err
		}
		return &core.Prediction{
			Measured1P: out.Measurement.Duration(),
			Ideal:      out.Parallel.Duration(),
			Result:     out.Result,
		}, nil
	}
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	cfg.Replay = s.replay
	mopts := core.MeasureOptions{SizeMode: mode}
	enc, err := s.cache.Encoded(cacheKey(b.Name(), size, threads, mopts), func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, b.Factory(size)(threads), mopts)
	})
	if err != nil {
		return nil, err
	}
	return core.ExtrapolateEncoded(ctx, enc, cfg)
}

// PredictBatch answers one prediction per config against a single
// shared measurement — the trace for (benchmark, size, threads) is
// decoded and translated once and every config's machine model advances
// over it through the batch kernel. Each returned prediction is
// byte-identical to what Predict returns for the same config.
func (s *Service) PredictBatch(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfgs []sim.Config) ([]*core.Prediction, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	stamped := make([]sim.Config, len(cfgs))
	copy(stamped, cfgs)
	for i := range stamped {
		stamped[i].Replay = s.replay
	}
	cfgs = stamped
	mopts := core.MeasureOptions{SizeMode: mode}
	key := cacheKey(b.Name(), size, threads, mopts)
	measure := func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, b.Factory(size)(threads), mopts)
	}
	var out []*core.Prediction
	if s.cache.Streams() {
		enc, err := s.cache.Encoded(key, measure)
		if err != nil {
			return nil, err
		}
		out, err = core.ExtrapolateEncodedBatch(ctx, enc, cfgs)
		if err != nil {
			return nil, err
		}
	} else {
		tr, err := s.cache.Measure(key, measure)
		if err != nil {
			return nil, err
		}
		pt, err := s.cache.Translated(key, measure)
		if err != nil {
			return nil, err
		}
		results, err := sim.SimulateBatchContext(ctx, pt, cfgs)
		if err != nil {
			return nil, err
		}
		out = make([]*core.Prediction, len(results))
		for i, res := range results {
			out[i] = &core.Prediction{
				Measured1P: tr.Duration(),
				Ideal:      pt.Duration(),
				Result:     res,
			}
		}
	}
	if len(cfgs) > 1 {
		s.bstats.Batches.Add(1)
		s.bstats.CellsBatched.Add(int64(len(cfgs)))
	} else {
		s.bstats.FallbackSequential.Add(1)
	}
	return out, nil
}

// Sweep runs one processor-ladder sweep job through the shared cache and
// worker pool, returning the scaling series in ladder order. Output is
// byte-identical at any worker count (the grid runner's invariant).
func (s *Service) Sweep(ctx context.Context, job SweepJob) ([]metrics.Point, error) {
	series, err := s.SweepGrid(ctx, []SweepJob{job})
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// SweepGrid runs several sweep jobs as one grid, returning one series
// per job in job order. Running related jobs together is what lets the
// batch kernel engage: cells that name the same benchmark, size, and
// thread count — the same measurement under different machine models —
// are simulated together in one pass over the shared trace when the
// Service's batch size allows. Output is byte-identical to running the
// jobs one at a time, at any worker count and batch size.
func (s *Service) SweepGrid(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	bo := batchOptions{size: s.batch, stats: &s.bstats}
	return runGrid(ctx, s.cache, s.workers, bo, s.stampReplay(jobs))
}

// stampReplay applies the service-wide replay mode to a copy of the
// jobs (callers' slices are never mutated).
func (s *Service) stampReplay(jobs []SweepJob) []SweepJob {
	out := make([]SweepJob, len(jobs))
	copy(out, jobs)
	for i := range out {
		out[i].Cfg.Replay = s.replay
	}
	return out
}

// SweepGridFitted answers each job's ladder through the analytic fitted
// path: only the sparse anchor set the model package's refinement
// selects is simulated (through the same cache and memoization as
// SweepGrid), and the remaining cells evaluate the least-squares fit,
// rounded to whole virtual nanoseconds. Anchor cells carry the exact
// simulated time; fitted cells are approximations. Output is
// deterministic and byte-identical at any worker count.
func (s *Service) SweepGridFitted(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	return runGridFitted(ctx, s.cache, s.workers, s.stampReplay(jobs))
}
