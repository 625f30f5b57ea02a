package pcxx_test

import (
	"errors"
	"reflect"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

// TestRecorderBoundRefusesMeasurement: a registry program that records
// more events than the recorder's bound fails its measurement with an
// error wrapping trace.ErrTraceTooLarge, and an encoded trace cache
// memoizes that refusal instead of measuring again. A program that
// records exactly the bound measures the same trace as without one. The
// bound is lowered through the test seam: a real run past
// trace.MaxTraceEvents records 13.4M events. It changes a process-wide
// setting, so it must not run in parallel.
func TestRecorderBoundRefusesMeasurement(t *testing.T) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return g.Factory(benchmarks.Size{N: 16, Iters: 4})(4) }
	want, err := core.Measure(prog(), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(want.Events))

	restore := pcxx.SetMaxRecorded(n)
	got, err := core.Measure(prog(), core.MeasureOptions{})
	restore()
	if err != nil {
		t.Fatalf("bound at the trace's %d events: %v", n, err)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatal("a bound the program meets changed its trace")
	}

	defer pcxx.SetMaxRecorded(n - 1)()
	if _, err := core.Measure(prog(), core.MeasureOptions{}); !errors.Is(err, trace.ErrTraceTooLarge) {
		t.Fatalf("bound one below the trace's %d events: err = %v, want ErrTraceTooLarge", n, err)
	}
	c := core.NewEncodedTraceCache(0, 0)
	key := core.CacheKey{Bench: "grid", N: 16, Iters: 4, Threads: 4}
	measure := func() (*trace.Trace, error) { return core.Measure(prog(), core.MeasureOptions{}) }
	for i := 0; i < 2; i++ {
		if _, err := c.Encoded(key, measure); !errors.Is(err, trace.ErrTraceTooLarge) {
			t.Fatalf("call %d: err = %v, want ErrTraceTooLarge", i, err)
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("%d measurements for two lookups, want the refusal memoized after 1", misses)
	}
}
