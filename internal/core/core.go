// Package core is the extrapolation pipeline — the paper's primary
// contribution assembled from the substrates: measure an n-thread program
// on one (virtual) processor, translate the trace to an idealized
// n-processor timescale, and simulate the target environment to predict
// performance.
//
//	Program ──Measure──▶ Trace ──ExtrapolateReader──▶ Prediction
//
// ExtrapolateReader translates and simulates in one streaming pass;
// ExtrapolateEncoded runs it over XTRP2 bytes.
//
// The package also provides the server's measurement memo cache
// (TraceCache), which keeps each measurement as XTRP2 bytes.
package core

import (
	"context"
	"errors"
	"fmt"

	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Program is an instrumentable data-parallel program. Exactly one of
// Setup and Emit is set: Setup registers collections against the
// runtime and returns the SPMD body the runtime executes; Emit writes
// the trace that execution would record, for a program whose events and
// compute are fixed by its description alone.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Threads is the thread count n the program is built for.
	Threads int
	// Setup registers collections and returns the per-thread body.
	Setup func(rt *pcxx.Runtime) func(*pcxx.Thread)
	// Emit returns the merged 1-processor trace of the program under
	// cfg, as the runtime would record it, polling cfg.Interrupt as the
	// runtime does.
	Emit func(cfg pcxx.Config) (*trace.Trace, error)
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
	// Seed is part of a measurement's cache key. No program draws on
	// it, so it leaves the trace unchanged.
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

// Measure runs the program under the instrumented 1-processor runtime, or
// has it emit that run's trace, and returns the merged measurement trace
// (performance information PI₁).
func Measure(p Program, opts MeasureOptions) (*trace.Trace, error) {
	return measure(context.Background(), p, opts)
}

// measure builds the instrumented runtime and executes the program, or
// has the program emit its trace; a cancellable ctx is wired in as the
// interrupt poll.
func measure(ctx context.Context, p Program, opts MeasureOptions) (*trace.Trace, error) {
	if (p.Setup == nil) == (p.Emit == nil) {
		return nil, fmt.Errorf("core: program %q must set exactly one of Setup and Emit", p.Name)
	}
	if p.Threads <= 0 {
		return nil, fmt.Errorf("core: program %q has invalid thread count %d", p.Name, p.Threads)
	}
	cfg := pcxx.Config{
		Threads:       p.Threads,
		Cost:          opts.Cost,
		EventOverhead: opts.EventOverhead,
		SizeMode:      opts.SizeMode,
	}
	if cfg.Cost == (pcxx.CostModel{}) {
		cfg.Cost = pcxx.Sun4()
	}
	if ctx.Done() != nil {
		cfg.Interrupt = ctx.Err
	}
	if p.Emit != nil {
		tr, err := emit(p, cfg)
		if err == nil && tr == nil {
			err = errors.New("emit returned no trace")
		}
		if err != nil {
			return nil, fmt.Errorf("core: measuring %q: %w", p.Name, err)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("core: measuring %q: program emitted malformed trace: %w", p.Name, err)
		}
		return tr, nil
	}
	rt := pcxx.NewRuntime(cfg)
	body, err := setup(p, rt)
	if err != nil {
		return nil, fmt.Errorf("core: measuring %q: %w", p.Name, err)
	}
	tr, err := rt.Run(body)
	if err != nil {
		return nil, fmt.Errorf("core: measuring %q: %w", p.Name, err)
	}
	return tr, nil
}

// setup runs the program's Setup, turning a panic into an error the way
// the scheduler turns a thread-body panic into one: an error value is
// wrapped, anything else formatted. Setup runs on whatever goroutine
// measures — a server's pool worker, which nothing else recovers — so a
// size the program cannot lay out must fail the request, not the process.
func setup(p Program, rt *pcxx.Runtime) (body func(*pcxx.Thread), err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recovered("setup", r)
		}
	}()
	return p.Setup(rt), nil
}

// emit runs the program's Emit, turning a panic into an error as setup
// does, for the same reason.
func emit(p Program, cfg pcxx.Config) (tr *trace.Trace, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recovered("emit", r)
		}
	}()
	return p.Emit(cfg)
}

// recovered turns a panic value from a program stage into an error.
func recovered(stage string, r any) error {
	if e, ok := r.(error); ok {
		return fmt.Errorf("%s failed: %w", stage, e)
	}
	return fmt.Errorf("%s panicked: %v", stage, r)
}

// ProgramFactory builds a program for a given thread count — how
// benchmarks parameterize processor-scaling sweeps.
type ProgramFactory func(threads int) Program

// DefaultProcCounts is the paper's processor scaling ladder.
func DefaultProcCounts() []int { return []int{1, 2, 4, 8, 16, 32} }
