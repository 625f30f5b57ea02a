// Package core is the extrapolation pipeline — the paper's primary
// contribution assembled from the substrates: measure an n-thread program
// on one (virtual) processor, translate the trace to an idealized
// n-processor timescale, and simulate the target environment to predict
// performance.
//
//	Program ──Measure──▶ Trace ──Translate──▶ ParallelTrace ──Extrapolate──▶ Result
//
// The package also provides the measurement memo cache (TraceCache) the
// experiment grids and the server share.
package core

import (
	"context"
	"fmt"

	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Program is an instrumentable data-parallel program: Setup registers
// collections against the runtime and returns the SPMD body.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Threads is the thread count n the program is built for.
	Threads int
	// Setup registers collections and returns the per-thread body.
	Setup func(rt *pcxx.Runtime) func(*pcxx.Thread)
}

// MeasureOptions configures the 1-processor measurement run.
type MeasureOptions struct {
	// Cost is the measurement host's computation cost model; the zero
	// value means the Sun-4 model.
	Cost pcxx.CostModel
	// EventOverhead is the per-event instrumentation cost to charge (and
	// compensate during translation).
	EventOverhead vtime.Time
	// SizeMode selects remote transfer-size attribution.
	SizeMode pcxx.SizeMode
	// Seed feeds deterministic program randomness.
	Seed uint64
}

// MeasureContext is Measure under a caller deadline: the context is
// checked up front and then polled at safe points inside the measurement
// runtime (event records and compute charges), so a cancelled context
// abandons even a long-running measurement promptly with an error
// satisfying errors.Is against ctx.Err(). Cancellation never perturbs
// the virtual clock or the trace — a run that completes is byte-identical
// to one measured without a context.
func MeasureContext(ctx context.Context, p Program, opts MeasureOptions) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: measuring %q: %w", p.Name, err)
	}
	return measure(ctx, p, opts)
}

// Measure runs the program under the instrumented 1-processor runtime and
// returns the merged measurement trace (performance information PI₁).
func Measure(p Program, opts MeasureOptions) (*trace.Trace, error) {
	return measure(context.Background(), p, opts)
}

// measure builds the instrumented runtime and executes the program; a
// cancellable ctx is wired in as the runtime's interrupt poll.
func measure(ctx context.Context, p Program, opts MeasureOptions) (*trace.Trace, error) {
	if p.Setup == nil {
		return nil, fmt.Errorf("core: program %q has no Setup", p.Name)
	}
	if p.Threads <= 0 {
		return nil, fmt.Errorf("core: program %q has invalid thread count %d", p.Name, p.Threads)
	}
	cfg := pcxx.Config{
		Threads:       p.Threads,
		Cost:          opts.Cost,
		EventOverhead: opts.EventOverhead,
		SizeMode:      opts.SizeMode,
		Seed:          opts.Seed,
	}
	if cfg.Cost == (pcxx.CostModel{}) {
		cfg.Cost = pcxx.Sun4()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	if ctx.Done() != nil {
		cfg.Interrupt = ctx.Err
	}
	rt := pcxx.NewRuntime(cfg)
	body := p.Setup(rt)
	tr, err := rt.Run(body)
	if err != nil {
		return nil, fmt.Errorf("core: measuring %q: %w", p.Name, err)
	}
	return tr, nil
}

// Outcome bundles every artifact of one full extrapolation.
type Outcome struct {
	// Measurement is the merged 1-processor trace (PI₁).
	Measurement *trace.Trace
	// Parallel is the translated idealized trace.
	Parallel *translate.ParallelTrace
	// Result is the predicted performance in the target environment
	// (PI₂ᵖ and PM₂ᵖ).
	Result *sim.Result
}

// Extrapolate translates a measurement trace and simulates it against the
// target environment.
func Extrapolate(tr *trace.Trace, cfg sim.Config) (*Outcome, error) {
	return ExtrapolateContext(context.Background(), tr, cfg)
}

// ExtrapolateContext is Extrapolate under a caller deadline: the context
// is checked between the translation and simulation stages and polled
// inside the simulation event loop, so a cancelled request abandons the
// pipeline promptly with an error satisfying errors.Is against ctx.Err().
func ExtrapolateContext(ctx context.Context, tr *trace.Trace, cfg sim.Config) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: extrapolation not started: %w", err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		return nil, err
	}
	res, err := sim.Simulate(ctx, nil, pt, cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{Measurement: tr, Parallel: pt, Result: res}, nil
}

// Run measures the program and extrapolates it to the target environment
// in one call.
func Run(p Program, opts MeasureOptions, cfg sim.Config) (*Outcome, error) {
	return RunContext(context.Background(), p, opts, cfg)
}

// RunContext is Run with the caller's context threaded through every
// pipeline stage.
func RunContext(ctx context.Context, p Program, opts MeasureOptions, cfg sim.Config) (*Outcome, error) {
	tr, err := MeasureContext(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return ExtrapolateContext(ctx, tr, cfg)
}

// ProgramFactory builds a program for a given thread count — how
// benchmarks parameterize processor-scaling sweeps.
type ProgramFactory func(threads int) Program

// DefaultProcCounts is the paper's processor scaling ladder.
func DefaultProcCounts() []int { return []int{1, 2, 4, 8, 16, 32} }
