package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Service is the experiment engine packaged as a long-lived component:
// a shared measurement memo cache plus the ladder-point executor,
// reusable across many independent requests instead of one experiment
// run. It backs the `extrap serve` HTTP API and `extrap experiment
// -workload` — every prediction goes through exactly the pipeline the
// paper's experiments use, and repeated requests for the same
// (benchmark, size, threads) share one measurement through the cache.
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

// NewService returns a Service whose ladders run at most workers points
// at once (see Workers) and whose memo cache retains at most
// cacheEntries measurements, evicting least-recently-used beyond that
// (≤ 0 means unbounded — only appropriate for fixed key populations,
// never for a server fed client-controlled parameters). maxTraceBytes
// (> 0) rejects any measurement whose encoding exceeds the budget with
// trace.ErrTraceTooLarge.
func NewService(workers, cacheEntries int, maxTraceBytes int64) *Service {
	return &Service{cache: core.NewTraceCache(cacheEntries, maxTraceBytes), workers: workers}
}

// CacheStats reports the memo cache's lookup effectiveness: lookups
// that ran no measurement (served from memory or from the backend) and
// measurement runs performed.
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

// Workers reports how many ladder points the Service's owner runs at
// once (≤ 0 means GOMAXPROCS): the bound RunLadder and the jobs queue
// fan a ladder's points across.
func (s *Service) Workers() int { return s.workers }

// Predict predicts one benchmark configuration on one target
// environment: measure (or reuse) the threads-thread trace, attributing
// transfers by the bytes actually moved (pcxx.ActualSize), and run it
// through the streaming pipeline under cfg. The context bounds every
// stage, including the measurement (polled at safe points in the
// runtime); a measurement aborted by the caller's deadline is not
// memoized — the error goes to that caller alone and the next request
// re-measures under its own deadline — so a timeout never poisons the
// cache.
func (s *Service) Predict(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, cfg sim.Config) (*core.Prediction, error) {
	enc, err := s.encoded(ctx, b, size, b.Factory(size), threads)
	if err != nil {
		return nil, err
	}
	return core.ExtrapolateEncoded(ctx, enc, cfg)
}

// encoded returns the XTRP2 bytes of b's threads-thread measurement at
// size, measured through f, b's factory at size, on a cache miss; the
// points of one ladder pass one f, so they share the inputs it builds
// once.
func (s *Service) encoded(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, f core.ProgramFactory, threads int) ([]byte, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	return s.cache.Encoded(MeasurementKey(b.Name(), size, threads, mopts), func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, f(threads), mopts)
	})
}

// PointRunner runs one ladder point: benchmark b at size sz, measured at
// threads threads and simulated on threads processors of every machine in
// envs, answering one exact total time per machine in envs order. f is
// b's program factory at sz, built once per ladder so its points share
// the inputs it builds. Which runner serves a process is chosen once, by
// cluster role: a solo server or worker runs points on its own *Service,
// a coordinator dispatches them to worker replicas
// (*cluster.Coordinator). Every runner answers the same integers, so
// where a point ran never shows in the output.
type PointRunner interface {
	RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error)
}

// RunPoint is the in-process ladder-point executor: the measurement is
// taken (or found in the cache or its backend) once, and
// core.ExtrapolateEncodedAll extrapolates it under every machine's
// model, compiling it once and translating it once when no machine's
// run could fast-forward, so every total is byte-identical to a single
// prediction of the same cell.
func (s *Service) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
	enc, err := s.encoded(ctx, b, sz, f, threads)
	if err != nil {
		return nil, err
	}
	var presets [4]sim.Config // a point on every machine preset allocates no list
	cfgs := presets[:0]
	if len(envs) > len(presets) {
		cfgs = make([]sim.Config, 0, len(envs))
	}
	for _, env := range envs {
		cfgs = append(cfgs, env.Config)
	}
	preds, err := core.ExtrapolateEncodedAll(ctx, enc, cfgs)
	if err != nil {
		return nil, err
	}
	times := make([]vtime.Time, len(envs))
	for i := range preds {
		times[i] = preds[i].Result.TotalTime
	}
	return times, nil
}

// RunLadder answers an exact sweep: every point of ladder runs through
// r, at most workers at once (≤ 0 selects GOMAXPROCS), over one factory
// for b at sz, and the answers merge into one series per machine in
// envs order. Points are handed out in ladder order and each writes its
// own slot, so the series do not depend on the worker count; on failure
// the lowest-indexed point's error is returned, the one a sequential
// loop would hit first.
func RunLadder(ctx context.Context, r PointRunner, workers int, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env, ladder []int) ([][]metrics.Point, error) {
	f := b.Factory(sz)
	series := make([][]metrics.Point, len(envs))
	for mi := range series {
		series[mi] = make([]metrics.Point, len(ladder))
	}
	err := pool.Run(workers, len(ladder), func(pi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		times, err := r.RunPoint(ctx, b, sz, f, ladder[pi], envs)
		if err != nil {
			return err
		}
		for mi := range envs {
			series[mi][pi] = metrics.Point{Procs: ladder[pi], Time: times[mi]}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// FitLadder answers a fitted sweep: model.Run's refinement picks the
// anchors, and each one runs through r as a ladder point, over one
// factory for b at sz, yielding one curve per machine in envs order.
// The refinement asks for anchors one at a time, ascending within each
// round, so the fit does not depend on where r runs a point.
func FitLadder(ctx context.Context, r PointRunner, b benchmarks.Benchmark, sz benchmarks.Size, envs []machine.Env, ladder []int) (*model.Result, error) {
	f := b.Factory(sz)
	return model.Run(ctx, ladder, len(envs), func(ctx context.Context, threads int) ([]vtime.Time, error) {
		return r.RunPoint(ctx, b, sz, f, threads, envs)
	}, model.Options{})
}
