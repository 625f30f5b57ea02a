package sim

import (
	"context"
	"errors"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// TestSimulateContextMatchesSimulate: a live, cancellable context (the
// event loop polls it) must not perturb the simulation — the result
// equals a run under context.Background.
func TestSimulateContextMatchesSimulate(t *testing.T) {
	pt := measureAndTranslate(t, 4, func(th *pcxx.Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(vtime.Time(th.ID()*13+i*7+5) * vtime.Microsecond)
			th.Barrier()
		}
	})
	want, err := Simulate(context.Background(), pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Simulate(ctx, pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTime != want.TotalTime {
		t.Errorf("cancellable-context time %v != background time %v", got.TotalTime, want.TotalTime)
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	pt := measureAndTranslate(t, 2, func(th *pcxx.Thread) {
		th.Compute(10 * vtime.Microsecond)
		th.Barrier()
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Simulate(ctx, pt, zeroConfig())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}
