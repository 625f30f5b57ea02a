package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

// TestEmitSeesCancellation: a context cancelled while a program emits
// its trace reaches Emit through cfg.Interrupt, and the measurement
// fails with an error matching context.Canceled.
func TestEmitSeesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Program{Name: "emitter", Threads: 2, Emit: func(cfg pcxx.Config) (*trace.Trace, error) {
		if cfg.Interrupt == nil {
			return nil, errors.New("no interrupt under a cancellable context")
		}
		cancel()
		for {
			if err := cfg.Interrupt(); err != nil {
				return nil, fmt.Errorf("measurement interrupted: %w", err)
			}
		}
	}}
	if _, err := MeasureContext(ctx, p, MeasureOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureContext error = %v, want context.Canceled", err)
	}
}

// TestEmitPanicIsAnError: a panicking Emit fails the measurement with an
// error, as a panicking Setup does, instead of crashing the measuring
// goroutine.
func TestEmitPanicIsAnError(t *testing.T) {
	p := Program{Name: "x", Threads: 2, Emit: func(pcxx.Config) (*trace.Trace, error) { panic("boom") }}
	if _, err := Measure(p, MeasureOptions{}); err == nil || !strings.Contains(err.Error(), "emit panicked: boom") {
		t.Errorf("Emit panicking with a string: got %v", err)
	}
	sentinel := errors.New("sentinel")
	p.Emit = func(pcxx.Config) (*trace.Trace, error) { panic(sentinel) }
	if _, err := Measure(p, MeasureOptions{}); !errors.Is(err, sentinel) {
		t.Errorf("Emit panicking with an error: got %v, want it wrapped", err)
	}
}

// TestProgramSetsOneOfSetupAndEmit: a program with neither or both of
// Setup and Emit, or whose Emit returns neither a trace nor an error, or
// a malformed trace, fails to measure.
func TestProgramSetsOneOfSetupAndEmit(t *testing.T) {
	setup := func(*pcxx.Runtime) func(*pcxx.Thread) { return func(*pcxx.Thread) {} }
	good := func(cfg pcxx.Config) (*trace.Trace, error) {
		tr := trace.New(cfg.Threads)
		for i := 0; i < cfg.Threads; i++ {
			tr.Append(trace.Event{Kind: trace.KindThreadStart, Thread: int32(i), Arg0: int64(cfg.Threads)})
			tr.Append(trace.Event{Kind: trace.KindThreadEnd, Thread: int32(i)})
		}
		return tr, nil
	}
	if _, err := Measure(Program{Name: "x", Threads: 2, Emit: good}, MeasureOptions{}); err != nil {
		t.Fatalf("well-formed Emit: %v", err)
	}
	for name, p := range map[string]Program{
		"neither":   {Name: "x", Threads: 2},
		"both":      {Name: "x", Threads: 2, Setup: setup, Emit: good},
		"nil trace": {Name: "x", Threads: 2, Emit: func(pcxx.Config) (*trace.Trace, error) { return nil, nil }},
		"malformed": {Name: "x", Threads: 2, Emit: func(pcxx.Config) (*trace.Trace, error) {
			tr := trace.New(2)
			tr.Append(trace.Event{Kind: trace.KindBarrierExit, Thread: 0})
			return tr, nil
		}},
	} {
		if _, err := Measure(p, MeasureOptions{}); err == nil {
			t.Errorf("%s: measured without error", name)
		}
	}
}
