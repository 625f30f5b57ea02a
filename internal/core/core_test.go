package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/vtime"
)

// testProgram returns a balanced program with one remote read per thread
// per phase.
func testProgram(threads int) Program {
	return Program{
		Name:    "test",
		Threads: threads,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			c := pcxx.PerThread[float64](rt, "c", 64)
			return func(t *pcxx.Thread) {
				*c.Local(t, t.ID()) = 1
				t.Barrier()
				for i := 0; i < 3; i++ {
					t.Compute(200 * vtime.Microsecond)
					_ = c.Read(t, (t.ID()+1)%threads)
					t.Barrier()
				}
			}
		},
	}
}

func freeConfig() sim.Config {
	return sim.Config{
		MipsRatio: 1,
		Policy:    sim.Policy{Kind: sim.Interrupt},
		Comm:      network.Config{Topology: network.Bus{}},
		Barrier:   sim.BarrierConfig{Algorithm: sim.LinearBarrier},
	}
}

func TestMeasureDefaults(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads != 4 {
		t.Fatalf("NumThreads = %d", tr.NumThreads)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureRejectsBadPrograms(t *testing.T) {
	if _, err := Measure(Program{Name: "x", Threads: 2}, MeasureOptions{}); err == nil {
		t.Error("nil Setup accepted")
	}
	p := testProgram(2)
	p.Threads = 0
	if _, err := Measure(p, MeasureOptions{}); err == nil {
		t.Error("zero threads accepted")
	}
}

// TestRunPipeline measures a program and extrapolates the measurement,
// checking the prediction against the in-memory pipeline oracle.
func TestRunPipeline(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, want := inMemory(t, tr, freeConfig())
	out, err := ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil {
		t.Fatal("incomplete prediction")
	}
	if !reflect.DeepEqual(out.Result, want) || out.Ideal != pt.Duration() || out.Measured1P != tr.Duration() {
		t.Fatalf("prediction (%v, %v, %+v) differs from the in-memory pipeline's (%v, %v, %+v)",
			out.Measured1P, out.Ideal, out.Result, tr.Duration(), pt.Duration(), want)
	}
	// Free environment: predicted time equals the translated ideal.
	if out.Result.TotalTime != out.Ideal {
		t.Fatalf("free-env time %v != ideal %v", out.Result.TotalTime, out.Ideal)
	}
	// Balanced program: ideal parallel time is 1/4 of serial.
	if got, want := out.Result.TotalTime, out.Measured1P/4; got != want {
		t.Fatalf("parallel %v, want %v", got, want)
	}
}

// sweep is the paper's scaling-series method: each processor count gets
// its own n-thread, 1-processor measurement, extrapolated to n
// processors under cfg.
func sweep(f ProgramFactory, cfg sim.Config, procs []int) ([]metrics.Point, error) {
	points := make([]metrics.Point, len(procs))
	for i, n := range procs {
		tr, err := Measure(f(n), MeasureOptions{})
		if err != nil {
			return nil, err
		}
		out, err := ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
		if err != nil {
			return nil, err
		}
		points[i] = metrics.Point{Procs: n, Time: out.Result.TotalTime}
	}
	return points, nil
}

func TestSweepProcs(t *testing.T) {
	points, err := sweep(func(n int) Program { return testProgram(n) }, freeConfig(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// testProgram is weak-scaled (constant per-thread work), so parallel
	// time stays constant and the strong-scaling speedup metric reads 1.
	for i := 1; i < len(points); i++ {
		if points[i].Time != points[0].Time {
			t.Errorf("point %d: time %v, want %v", i, points[i].Time, points[0].Time)
		}
	}
	sp := metrics.Speedup(points)
	if sp[2] < 0.99 || sp[2] > 1.01 {
		t.Errorf("weak-scaling speedup at 4 procs = %.3f, want 1", sp[2])
	}
}

func TestSweepStrongScaling(t *testing.T) {
	// A fixed-size program (total work constant, split over threads)
	// shows real speedup in a free environment.
	total := 1200 * vtime.Microsecond
	strong := func(n int) Program {
		return Program{
			Name:    "strong",
			Threads: n,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				return func(t *pcxx.Thread) {
					t.Compute(total / vtime.Time(n))
					t.Barrier()
				}
			},
		}
	}
	points, err := sweep(strong, freeConfig(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	sp := metrics.Speedup(points)
	if sp[2] < 3.99 || sp[2] > 4.01 {
		t.Errorf("strong-scaling speedup at 4 procs = %.3f, want 4", sp[2])
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	_, err := sweep(func(n int) Program { return Program{Name: "bad", Threads: n} }, freeConfig(), []int{1})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %v does not identify the failing program", err)
	}
}

func TestExtrapolateRejectsBadConfig(t *testing.T) {
	tr, err := Measure(testProgram(2), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := freeConfig()
	cfg.MipsRatio = -1
	if _, err := ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDefaultProcCounts(t *testing.T) {
	want := []int{1, 2, 4, 8, 16, 32}
	got := DefaultProcCounts()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMeasureSeedAffectsOnlyRandomness(t *testing.T) {
	// Same seed ⇒ identical traces; the structure (event kinds per
	// thread) is seed-independent for deterministic programs.
	a, err := Measure(testProgram(3), MeasureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(testProgram(3), MeasureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("same-seed traces differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same-seed traces diverge at %d", i)
		}
	}
}
