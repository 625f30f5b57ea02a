package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// TestStreamingServiceMatchesInMemory: the Service's streaming pipeline,
// and the library's (core.ExtrapolateReader over the measured trace, as
// the root facade runs it), must predict exactly what the in-memory
// pipeline oracle predicts — the same scalars and Result as
// translate.Translate + sim.Simulate on the same measurement — and
// Service sweeps the same points as the experiment runner's in-memory
// grid.
func TestStreamingServiceMatchesInMemory(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()
	str := NewService(2, 0, 0)

	tr, err := core.Measure(b.Factory(size)(4), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Simulate(ctx, pt, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.ExtrapolateReader(ctx, tr.Header(), tr.Reader(), freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*core.Prediction{"Service": got, "library": lib} {
		if p.Measured1P != tr.Duration() || p.Ideal != pt.Duration() {
			t.Errorf("%s scalars differ: streaming (%v, %v) vs in-memory (%v, %v)",
				name, p.Measured1P, p.Ideal, tr.Duration(), pt.Duration())
		}
		if !reflect.DeepEqual(p.Result, want) {
			t.Errorf("%s results differ:\nstreaming: %+v\nin-memory: %+v", name, *p.Result, *want)
		}
	}

	// The memoized bytes serve repeat predictions without re-measuring.
	if _, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg()); err != nil {
		t.Fatal(err)
	}
	if _, misses := str.CacheStats(); misses != 1 {
		t.Errorf("streaming service measured %d times, want 1", misses)
	}

	// Sweeps route through runGrid's streaming branch and must match the
	// in-memory grid point for point.
	sb := mustBench(t, "cyclic")
	ssize := quickSize(sb)
	jobs := []SweepJob{{
		Name:    sb.Name(),
		Size:    ssize,
		Factory: sb.Factory(ssize),
		Mode:    pcxx.ActualSize,
		Cfg:     freeCfg(),
		Procs:   []int{1, 2, 4},
	}}
	wantPts, err := runGrid(ctx, core.NewTraceCache(), 2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	gotPts, err := str.SweepGrid(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPts, wantPts) {
		t.Errorf("sweep points differ:\nstreaming: %+v\nin-memory: %+v", gotPts, wantPts)
	}
}

// TestStreamingServiceTraceBudget: a measurement encoding past the
// budget surfaces trace.ErrTraceTooLarge from every prediction entry
// point, and the deterministic rejection is memoized.
func TestStreamingServiceTraceBudget(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()
	str := NewService(1, 4, 64) // far below any real encoding

	for i := 0; i < 2; i++ {
		if _, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg()); !errors.Is(err, trace.ErrTraceTooLarge) {
			t.Fatalf("Predict call %d: err = %v, want ErrTraceTooLarge", i, err)
		}
	}
	if _, misses := str.CacheStats(); misses != 1 {
		t.Errorf("rejected measurement ran %d times, want 1 (memoized)", misses)
	}
	job := SweepJob{Name: b.Name(), Size: size, Factory: b.Factory(size), Mode: pcxx.ActualSize, Cfg: freeCfg(), Procs: []int{2}}
	if _, err := str.SweepGrid(ctx, []SweepJob{job}); !errors.Is(err, trace.ErrTraceTooLarge) {
		t.Errorf("SweepGrid err = %v, want ErrTraceTooLarge", err)
	}
}

// TestQuickSuiteThroughEncodedCache runs the whole -quick experiment
// suite through the encoded XTRP2 cache — the server's streaming
// pipeline, fast-forward included — and demands output byte-identical
// to the production in-memory run. The replay counters must show at
// least one fast-forward, so the pattern-replay path is provably on
// the hot path rather than vacuously equal.
func TestQuickSuiteThroughEncodedCache(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		for _, e := range All() {
			out, err := e.Run(Options{Quick: true, Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out.Render(&buf)
		}
		return buf.Bytes()
	}
	want := render()

	defer func(orig func() *core.TraceCache) { newRunnerCache = orig }(newRunnerCache)
	newRunnerCache = func() *core.TraceCache { return core.NewEncodedTraceCache(0, 0) }
	before := sim.ReadReplayCounters()
	got := render()
	ff := sim.ReadReplayCounters().FastForwards - before.FastForwards

	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("encoded-cache suite differs at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("encoded-cache suite output has %d lines, in-memory %d", len(gl), len(wl))
	}
	if ff == 0 {
		t.Error("encoded-cache suite made no fast-forward")
	}
}
