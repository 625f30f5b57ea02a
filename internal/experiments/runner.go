package experiments

import (
	"context"
	"math"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// runner executes an experiment's measurement/simulation grid across the
// configured worker pool, memoizing measurement traces so each distinct
// (benchmark, size, threads, measure options) combination is measured and
// translated once and then simulated under every configuration. Results
// are always written to index-addressed slots and assembled sequentially,
// so the Output is byte-identical at any worker count.
type runner struct {
	opts  Options
	cache *core.TraceCache
}

// newRunnerCache builds an experiment run's memo cache. Experiment grids
// simulate each measurement under many configurations, so the in-memory
// cache (one shared translation per measurement) is the production
// choice; tests swap in the encoded cache to run the suite through the
// server's streaming pipeline.
var newRunnerCache = core.NewTraceCache

func newRunner(opts Options) *runner {
	r := &runner{opts: opts, cache: newRunnerCache()}
	if opts.Backend != nil {
		r.cache.SetBackend(opts.Backend)
	}
	return r
}

// each runs fn(i) for i in [0, n) on the experiment's worker pool,
// returning the lowest-indexed error (the one a sequential loop would
// report first).
func (r *runner) each(n int, fn func(i int) error) error {
	return pool.Run(r.opts.Workers, n, fn)
}

// cacheKey builds the memo-cache key for one measurement.
func cacheKey(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions) core.CacheKey {
	return core.CacheKey{
		Bench:   bench,
		N:       size.N,
		Iters:   size.Iters,
		Verify:  size.Verify,
		Threads: threads,
		Opts:    mopts,
	}
}

// MeasurementKey is the exported form of the engine's memo-cache key
// constructor, so layers above the engine (the jobs queue, the artifact
// store wiring) can address the same measurement the engine will run —
// the content address of a job cell's trace must be the key the cache
// would use, or durability would split into two namespaces.
func MeasurementKey(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions) core.CacheKey {
	return cacheKey(bench, size, threads, mopts)
}

// measured returns the (cached) measurement trace for one benchmark run.
// The returned trace is shared — callers must treat it as read-only.
func (r *runner) measured(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*trace.Trace, error) {
	key := cacheKey(bench, size, threads, mopts)
	measure := func() (*trace.Trace, error) { return core.Measure(f(threads), mopts) }
	if !r.cache.Streams() {
		return r.cache.Measure(key, measure)
	}
	enc, err := r.cache.Encoded(key, measure)
	if err != nil {
		return nil, err
	}
	return trace.ReadBinary2(enc)
}

// translated returns the (cached) translated trace for one benchmark run,
// measuring and translating on first use.
func (r *runner) translated(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*translate.ParallelTrace, error) {
	if !r.cache.Streams() {
		return r.cache.Translated(cacheKey(bench, size, threads, mopts), func() (*trace.Trace, error) {
			return core.Measure(f(threads), mopts)
		})
	}
	tr, err := r.measured(bench, size, threads, mopts, f)
	if err != nil {
		return nil, err
	}
	return translate.Translate(tr)
}

// SweepJob is one curve of a parameter grid: a benchmark swept over the
// processor ladder under one simulation configuration. Jobs naming the
// same benchmark/size/mode share measurement traces through the memo
// cache regardless of how their configs differ. SweepJob is exported so
// callers outside the registered experiments — notably the `extrap
// serve` API — run the same grid machinery the paper's experiments use.
type SweepJob struct {
	// Name identifies the program for the memo cache; include variant
	// parameters that change program behavior.
	Name string
	Size benchmarks.Size
	// Factory builds the program at a thread count; it must be the same
	// program whenever (Name, Size) are the same.
	Factory core.ProgramFactory
	// Mode is the transfer-size attribution for the measurement.
	Mode pcxx.SizeMode
	// Cfg is this curve's simulation configuration.
	Cfg sim.Config
	// Procs is the processor ladder for this curve.
	Procs []int
}

// job is a convenience constructor for the common benchmark-over-ladder
// case.
func (r *runner) job(b benchmarks.Benchmark, mode pcxx.SizeMode, cfg sim.Config, procs []int) SweepJob {
	return SweepJob{
		Name:    b.Name(),
		Size:    r.opts.size(b),
		Factory: b.Factory(r.opts.size(b)),
		Mode:    mode,
		Cfg:     cfg,
		Procs:   procs,
	}
}

// runGrid fans the grid across the experiment's worker pool, through
// the fitted path when the run's FitMode selects it.
func (r *runner) runGrid(jobs []SweepJob) ([][]metrics.Point, error) {
	if r.opts.FitMode == "fitted" {
		return runGridFitted(context.Background(), r.cache, r.opts.Workers, jobs)
	}
	return runGrid(context.Background(), r.cache, r.opts.Workers, jobs)
}

// gridCell addresses one (job, ladder index) cell of a flattened grid.
type gridCell struct{ job, pt int }

// runGrid fans every (job, processor count) cell of the grid across a
// worker pool and returns one point series per job, in job order. Each
// cell measures through the memo cache (so cells sharing a measurement
// wait for one run, then share the trace) and simulates independently
// under ctx, which bounds the measurement and simulation work of every
// cell; ctx-aborted measurements are not memoized.
//
// On an encoded cache (cache.Streams()) each cell instead pulls the
// compact immutable bytes and runs the bounded-memory streaming
// pipeline — decode, translate, and simulate flow through cursors, so
// a cell's transient footprint is the translation buffer, not the
// trace. The streaming pipeline is byte-identical to the in-memory
// one, so the grid's output is the same either way, at any worker
// count.
func runGrid(ctx context.Context, cache *core.TraceCache, workers int, jobs []SweepJob) ([][]metrics.Point, error) {
	// Flatten the grid so the pool load-balances across cells of every
	// job, not one job at a time.
	var cells []gridCell
	points := make([][]metrics.Point, len(jobs))
	for j := range jobs {
		points[j] = make([]metrics.Point, len(jobs[j].Procs))
		for i := range jobs[j].Procs {
			cells = append(cells, gridCell{j, i})
		}
	}
	err := pool.Run(workers, len(cells), func(c int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := &jobs[cells[c].job]
		n := job.Procs[cells[c].pt]
		total, err := cellTime(ctx, cache, job, n)
		if err != nil {
			return err
		}
		points[cells[c].job][cells[c].pt] = metrics.Point{Procs: n, Time: total}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// cellTime measures (through the memo cache) and simulates one cell,
// returning its exact predicted total.
func cellTime(ctx context.Context, cache *core.TraceCache, job *SweepJob, n int) (vtime.Time, error) {
	mopts := core.MeasureOptions{SizeMode: job.Mode}
	key := cacheKey(job.Name, job.Size, n, mopts)
	measure := func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, job.Factory(n), mopts)
	}
	if cache.Streams() {
		enc, err := cache.Encoded(key, measure)
		if err != nil {
			return 0, err
		}
		pred, err := core.ExtrapolateEncoded(ctx, enc, job.Cfg)
		if err != nil {
			return 0, err
		}
		return pred.Result.TotalTime, nil
	}
	pt, err := cache.Translated(key, measure)
	if err != nil {
		return 0, err
	}
	res, err := sim.Simulate(ctx, pt, job.Cfg)
	if err != nil {
		return 0, err
	}
	return res.TotalTime, nil
}

// runGridFitted answers each job's ladder through the analytic fitted
// path: the model package's refinement picks a sparse anchor set per
// job, anchors simulate exactly like sequential grid cells (same memo
// cache, same keys), and non-anchor cells evaluate the fit, rounded to
// whole virtual nanoseconds and clamped non-negative. Jobs fan across
// the worker pool; each job's refinement is serial and deterministic,
// so the assembled output is byte-identical at any worker count.
func runGridFitted(ctx context.Context, cache *core.TraceCache, workers int, jobs []SweepJob) ([][]metrics.Point, error) {
	points := make([][]metrics.Point, len(jobs))
	err := pool.Run(workers, len(jobs), func(j int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := &jobs[j]
		sim := func(ctx context.Context, n int) ([]vtime.Time, error) {
			t, err := cellTime(ctx, cache, job, n)
			if err != nil {
				return nil, err
			}
			return []vtime.Time{t}, nil
		}
		res, err := model.Run(ctx, job.Procs, 1, sim, model.Options{})
		if err != nil {
			return err
		}
		points[j] = make([]metrics.Point, len(job.Procs))
		for i, p := range res.Curves[0].Points {
			if p.Simulated {
				points[j][i] = metrics.Point{Procs: p.Procs, Time: p.Exact}
				continue
			}
			v := math.Round(p.Value)
			if v < 0 {
				v = 0
			}
			points[j][i] = metrics.Point{Procs: p.Procs, Time: vtime.Time(v)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
