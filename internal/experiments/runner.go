package experiments

import (
	"bytes"
	"context"
	"sync"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// runner executes an experiment's measurement/simulation grid across the
// configured worker pool. It memoizes the run's measurements: each
// distinct (benchmark, size, threads, measure options) combination — one
// core.CacheKey — is measured once, translated once the first time a
// caller needs it, and then simulated under every configuration. A run's
// keys are fixed by its grid, so the memo keeps every point until the
// run ends. Results are always written to index-addressed slots and
// assembled sequentially, so the Output is byte-identical at any worker
// count.
type runner struct {
	opts   Options
	mu     sync.Mutex
	points map[core.CacheKey]*point
}

// point is one memoized measurement of a run and its translation. Every
// caller of a point waits on its sync.Once guards, so no worker repeats
// a measurement or translation another has started. Callers share the
// trace and translation read-only: Translate and Simulate never mutate
// their input (a guard test in internal/core enforces this).
type point struct {
	measure       func() (*trace.Trace, error)
	measureOnce   sync.Once
	tr            *trace.Trace
	err           error
	translateOnce sync.Once
	pt            *translate.ParallelTrace
	terr          error
}

// trace returns the point's measurement, taking it on first use.
func (p *point) trace() (*trace.Trace, error) {
	p.measureOnce.Do(func() { p.tr, p.err = p.measure() })
	return p.tr, p.err
}

// translated returns the point's translation, measuring and translating
// on first use.
func (p *point) translated() (*translate.ParallelTrace, error) {
	p.translateOnce.Do(func() {
		tr, err := p.trace()
		if err != nil {
			p.terr = err
			return
		}
		p.pt, p.terr = translate.Translate(tr)
	})
	return p.pt, p.terr
}

// measureProgram is the runner's measurement step; tests wrap it to
// count measurements.
var measureProgram = core.Measure

func newRunner(opts Options) *runner {
	return &runner{opts: opts, points: make(map[core.CacheKey]*point)}
}

// MeasurementKey is the memo key of one measurement, exported so layers
// above the engine (the jobs queue, the artifact store wiring) can
// address the same measurement the engine will run — the content
// address of a job cell's trace must be the key the engine would use, or
// durability would split into two namespaces.
func MeasurementKey(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions) core.CacheKey {
	return core.CacheKey{
		Bench:   bench,
		N:       size.N,
		Iters:   size.Iters,
		Verify:  size.Verify,
		Threads: threads,
		Opts:    mopts,
	}
}

// point returns (creating if needed) the run's point for key, whose
// program is f at key.Threads threads. f must be the same program
// whenever key is the same.
func (r *runner) point(key core.CacheKey, f core.ProgramFactory) *point {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[key]
	if !ok {
		p = &point{measure: func() (*trace.Trace, error) { return r.measure(key, f) }}
		r.points[key] = p
	}
	return p
}

// measure takes one measurement. With a backend, a stored trace is
// decoded instead of re-running the program, and a fresh measurement is
// written through as XTRP2 — the only time the runner encodes a trace.
// A stored artifact that is not a core.UsableArtifact is a miss: the
// program is measured afresh.
func (r *runner) measure(key core.CacheKey, f core.ProgramFactory) (*trace.Trace, error) {
	b := r.opts.Backend
	if b != nil {
		if enc, ok := b.GetTrace(key, trace.FormatXTRP2); ok && core.UsableArtifact(key, enc) {
			if tr, err := trace.ReadBinary2(enc); err == nil {
				return tr, nil
			}
		}
	}
	tr, err := measureProgram(f(key.Threads), key.Opts)
	if err == nil && b != nil {
		var buf bytes.Buffer
		if trace.WriteBinary2(&buf, tr) == nil {
			b.PutTrace(key, trace.FormatXTRP2, buf.Bytes())
		}
	}
	return tr, err
}

// measured returns the memoized measurement trace for one benchmark run.
// The returned trace is shared — callers must treat it as read-only.
func (r *runner) measured(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*trace.Trace, error) {
	return r.point(MeasurementKey(bench, size, threads, mopts), f).trace()
}

// translated returns the memoized translated trace for one benchmark
// run, measuring and translating on first use.
func (r *runner) translated(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*translate.ParallelTrace, error) {
	return r.point(MeasurementKey(bench, size, threads, mopts), f).translated()
}

// sweepJob is one curve of a parameter grid: a benchmark swept over the
// processor ladder under one simulation configuration. Jobs naming the
// same benchmark/size/mode share measurement traces through the run's
// memo regardless of how their configs differ.
type sweepJob struct {
	// Name identifies the program for the memo; include variant
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
func (r *runner) job(b benchmarks.Benchmark, mode pcxx.SizeMode, cfg sim.Config, procs []int) sweepJob {
	return sweepJob{
		Name:    b.Name(),
		Size:    r.opts.size(b),
		Factory: b.Factory(r.opts.size(b)),
		Mode:    mode,
		Cfg:     cfg,
		Procs:   procs,
	}
}

// runGrid fans the grid across the experiment's worker pool.
func (r *runner) runGrid(jobs []sweepJob) ([][]metrics.Point, error) {
	// Flatten the grid so the pool load-balances across cells of every
	// job, not one job at a time.
	type gridCell struct{ job, pt int }
	var cells []gridCell
	points := make([][]metrics.Point, len(jobs))
	for j := range jobs {
		points[j] = make([]metrics.Point, len(jobs[j].Procs))
		for i := range jobs[j].Procs {
			cells = append(cells, gridCell{j, i})
		}
	}
	err := pool.Run(r.opts.Workers, len(cells), func(c int) error {
		job := &jobs[cells[c].job]
		n := job.Procs[cells[c].pt]
		total, err := r.cellTime(job, n)
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

// cellTime simulates one cell on its point's memoized measurement,
// returning its exact predicted total.
func (r *runner) cellTime(job *sweepJob, n int) (vtime.Time, error) {
	key := MeasurementKey(job.Name, job.Size, n, core.MeasureOptions{SizeMode: job.Mode})
	return simulateCell(r.point(key, job.Factory), job.Cfg)
}

// simulateCell is a grid cell's simulate step: the point's translation
// simulated under cfg. Tests swap in the streaming pipeline over the
// point's XTRP2 bytes, which must answer the same total.
var simulateCell = func(p *point, cfg sim.Config) (vtime.Time, error) {
	pt, err := p.translated()
	if err != nil {
		return 0, err
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		return 0, err
	}
	return res.TotalTime, nil
}
