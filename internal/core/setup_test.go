package core_test

import (
	"errors"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/pcxx"
)

// TestSetupPanicIsAnError: a program whose Setup cannot lay out the
// requested size must fail the measurement with an error, as a failing
// thread body does, instead of panicking on the measuring goroutine.
// Sort with 16 keys over 32 threads gives each thread an empty block,
// and mgrid on a 2×2 grid has no multigrid levels.
func TestSetupPanicIsAnError(t *testing.T) {
	for _, c := range []struct {
		bench   string
		size    benchmarks.Size
		threads int
		want    string
	}{
		{"sort", benchmarks.Size{N: 16}, 32, "elemBytes must be positive"},
		{"mgrid", benchmarks.Size{N: 2, Iters: 1}, 1, "index out of range"},
	} {
		b, err := benchmarks.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Measure(b.Factory(c.size)(c.threads), core.MeasureOptions{})
		if err == nil {
			t.Fatalf("%s %+v at %d threads measured without error", c.bench, c.size, c.threads)
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), `core: measuring "`+c.bench+`"`) {
			t.Errorf("%s: error %q does not name the program and the cause %q", c.bench, err, c.want)
		}
	}

	sentinel := errors.New("sentinel")
	p := core.Program{Name: "x", Threads: 2, Setup: func(*pcxx.Runtime) func(*pcxx.Thread) { panic(sentinel) }}
	if _, err := core.Measure(p, core.MeasureOptions{}); !errors.Is(err, sentinel) {
		t.Errorf("Setup panicking with an error: got %v, want it wrapped", err)
	}
}
