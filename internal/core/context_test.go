package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"extrap/internal/pcxx"
)

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestCancelledContextStopsEachStage(t *testing.T) {
	ctx := cancelledCtx()
	if _, err := MeasureContext(ctx, testProgram(2), MeasureOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureContext error = %v, want context.Canceled", err)
	}
	tr, err := Measure(testProgram(2), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtrapolateReader(ctx, tr.Header(), tr.Reader(), freeConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExtrapolateReader error = %v, want context.Canceled", err)
	}
	enc := encodeTrace2(t, tr)
	if _, err := ExtrapolateEncoded(ctx, enc, freeConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExtrapolateEncoded error = %v, want context.Canceled", err)
	}
}

// flakyCtx is a context whose Err starts returning DeadlineExceeded
// after a fixed number of polls — a deterministic stand-in for a
// deadline that fires mid-measurement.
type flakyCtx struct {
	pollsLeft int
	done      chan struct{}
}

func newFlakyCtx(polls int) *flakyCtx {
	return &flakyCtx{pollsLeft: polls, done: make(chan struct{})}
}

func (c *flakyCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *flakyCtx) Done() <-chan struct{}       { return c.done }
func (c *flakyCtx) Value(any) any               { return nil }
func (c *flakyCtx) Err() error {
	if c.pollsLeft--; c.pollsLeft < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestMeasureContextInterruptsMidRun: a deadline firing after the
// measurement has started must still abort it — the runtime polls the
// context at safe points rather than running to completion.
func TestMeasureContextInterruptsMidRun(t *testing.T) {
	// Enough compute charges to cross the runtime's poll interval many
	// times over, so an in-run poll (not the up-front check) fires.
	heavy := Program{
		Name:    "heavy",
		Threads: 2,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			return func(th *pcxx.Thread) {
				for i := 0; i < 1_000_000; i++ {
					th.Compute(1)
				}
			}
		},
	}
	// The first poll (the up-front check) passes; a later one, reached
	// from inside the runtime, fails.
	_, err := MeasureContext(newFlakyCtx(1), heavy, MeasureOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MeasureContext error = %v, want DeadlineExceeded", err)
	}
	// The same program measures fine without a deadline.
	if _, err := Measure(heavy, MeasureOptions{}); err != nil {
		t.Fatalf("Measure of heavy program failed: %v", err)
	}
}
