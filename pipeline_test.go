package extrap

// Integration tests spanning the whole pipeline: measurement → codec →
// translation → simulation → metrics, with cross-stage consistency
// invariants and failure injection.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// inMemory is the in-memory pipeline oracle the facade's streaming
// Extrapolate is checked against: the whole measurement translated into
// a materialized parallel trace, then simulated.
func inMemory(tr *Trace, cfg sim.Config) (*translate.ParallelTrace, *sim.Result, error) {
	pt, err := translate.Translate(tr)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		return nil, nil, err
	}
	return pt, res, nil
}

// measureBench produces a small trace of the named benchmark.
func measureBench(t *testing.T, name string, threads int) *Trace {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	size := benchmarks.Size{N: 16, Iters: 8}
	if name == "sort" {
		size = benchmarks.Size{N: 256}
	}
	if name == "embar" {
		size = benchmarks.Size{N: 9}
	}
	tr, err := core.Measure(b.Factory(size)(threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceMetricsConsistency: metrics recomputed from the emitted
// extrapolated trace must agree with the simulator's own accounting —
// the paper's pipeline derives PM₂ᵖ from PI₂ᵖ, so the two views of the
// same run have to coincide.
func TestTraceMetricsConsistency(t *testing.T) {
	for _, name := range []string{"grid", "cyclic", "sort"} {
		tr := measureBench(t, name, 4)
		cfg := machine.GenericDM().Config
		cfg.EmitTrace = true
		out, err := Extrapolate(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Result.Trace == nil {
			t.Fatalf("%s: no extrapolated trace", name)
		}
		tm, err := metrics.FromTrace(out.Result.Trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tm.Barriers != int64(out.Result.Barriers) {
			t.Errorf("%s: trace barriers %d != result barriers %d", name, tm.Barriers, out.Result.Barriers)
		}
		// The trace's latest event is at or before the simulated end, and
		// within the final thread-end events it matches exactly.
		if tm.TotalTime > out.Result.TotalTime {
			t.Errorf("%s: trace time %v exceeds result %v", name, tm.TotalTime, out.Result.TotalTime)
		}
		if tm.TotalTime != out.Result.TotalTime {
			t.Errorf("%s: trace time %v != result time %v", name, tm.TotalTime, out.Result.TotalTime)
		}
		// Per-thread barrier wait sums match the simulator's accounting.
		var statWait vtime.Time
		for _, s := range out.Result.Threads {
			statWait += s.BarrierWait
		}
		if tm.BarrierWait != statWait {
			t.Errorf("%s: trace barrier wait %v != stats %v", name, tm.BarrierWait, statWait)
		}
	}
}

// TestCodecPreservesExtrapolation: a trace that has been written to disk
// and read back must extrapolate to the prediction the in-memory
// pipeline makes from the original.
func TestCodecPreservesExtrapolation(t *testing.T) {
	tr := measureBench(t, "mgrid", 4)
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadBinary2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CM5().Config
	_, a, err := inMemory(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extrapolate(tr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.Result.TotalTime {
		t.Fatalf("prediction changed across codec round trip: %v vs %v",
			a.TotalTime, b.Result.TotalTime)
	}
}

// TestPredictionNeverBelowIdeal: for every benchmark and environment, the
// predicted time is bounded below by the translated ideal time scaled by
// MipsRatio — the simulator only ever adds costs.
func TestPredictionNeverBelowIdeal(t *testing.T) {
	envs := machine.Presets()
	for _, name := range []string{"embar", "cyclic", "grid", "sort", "poisson"} {
		tr := measureBench(t, name, 4)
		pt, err := translate.Translate(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			out, err := Extrapolate(tr, env.Config)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, env.Name, err)
			}
			floor := pt.Duration().Scale(env.Config.MipsRatio)
			if out.Result.TotalTime < floor {
				t.Errorf("%s/%s: predicted %v below scaled ideal %v",
					name, env.Name, out.Result.TotalTime, floor)
			}
		}
	}
}

// TestMonotoneInCostParameters: raising a single cost parameter must not
// speed up the prediction (weak monotonicity over a parameter ladder).
func TestMonotoneInCostParameters(t *testing.T) {
	tr := measureBench(t, "cyclic", 8)
	base := machine.GenericDM().Config
	mutations := map[string]func(*sim.Config, vtime.Time){
		"startup":      func(c *sim.Config, v vtime.Time) { c.Comm.StartupTime = v },
		"byteTransfer": func(c *sim.Config, v vtime.Time) { c.Comm.ByteTransferTime = v / 100 },
		"service":      func(c *sim.Config, v vtime.Time) { c.Policy.ServiceTime = v },
		"barrierEntry": func(c *sim.Config, v vtime.Time) { c.Barrier.EntryTime = v },
		"modelTime":    func(c *sim.Config, v vtime.Time) { c.Barrier.ModelTime = v },
		"recv":         func(c *sim.Config, v vtime.Time) { c.Comm.RecvOverhead = v },
	}
	for name, mutate := range mutations {
		var prev vtime.Time
		for i, v := range []vtime.Time{0, 20 * vtime.Microsecond, 200 * vtime.Microsecond} {
			cfg := base
			mutate(&cfg, v)
			out, err := Extrapolate(tr, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i > 0 && out.Result.TotalTime < prev {
				t.Errorf("%s: raising the parameter sped up the run: %v → %v",
					name, prev, out.Result.TotalTime)
			}
			prev = out.Result.TotalTime
		}
	}
}

// TestMipsRatioPropertyOnComputeBound: for a pure-compute program the
// predicted time scales linearly with MipsRatio under a free environment.
func TestMipsRatioPropertyOnComputeBound(t *testing.T) {
	prog := core.Program{
		Name:    "pure-compute",
		Threads: 2,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			return func(th *pcxx.Thread) {
				th.Compute(1 * vtime.Millisecond)
				th.Barrier()
			}
		},
	}
	tr, err := core.Measure(prog, core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(r uint8) bool {
		ratio := float64(r%64)/8 + 0.125
		cfg := machine.Ideal().Config
		cfg.MipsRatio = ratio
		out, err := Extrapolate(tr, cfg)
		if err != nil {
			return false
		}
		return out.Result.TotalTime == (1 * vtime.Millisecond).Scale(ratio)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFailureInjectionCorruptTraces: corrupted traces must be rejected at
// translation, never crash the simulator, by the streaming pipeline and
// the in-memory one alike.
func TestFailureInjectionCorruptTraces(t *testing.T) {
	tr := measureBench(t, "grid", 4)
	corruptions := map[string]func(*trace.Trace){
		"drop barrier exit": func(c *trace.Trace) {
			for i, e := range c.Events {
				if e.Kind == trace.KindBarrierExit {
					c.Events = append(c.Events[:i], c.Events[i+1:]...)
					return
				}
			}
		},
		"scramble thread id": func(c *trace.Trace) {
			c.Events[len(c.Events)/2].Thread = 99
		},
		"negative size": func(c *trace.Trace) {
			for i, e := range c.Events {
				if e.Kind == trace.KindRemoteRead {
					c.Events[i].Arg1 = -1
					return
				}
			}
		},
		"time reversal": func(c *trace.Trace) {
			c.Events[len(c.Events)-1].Time = 0
		},
	}
	for name, corrupt := range corruptions {
		c := &trace.Trace{NumThreads: tr.NumThreads, EventOverhead: tr.EventOverhead, Phases: tr.Phases,
			Events: append([]trace.Event(nil), tr.Events...)}
		corrupt(c)
		if _, err := Extrapolate(c, machine.GenericDM().Config); err == nil {
			t.Errorf("%s: corrupted trace accepted", name)
		}
		if _, _, err := inMemory(c, machine.GenericDM().Config); err == nil {
			t.Errorf("%s: corrupted trace accepted by the in-memory pipeline", name)
		}
	}
}

// TestExtrapolationIsDeterministicEverywhere: the full pipeline produces
// byte-identical predictions across repeated runs for every benchmark:
// one run through the in-memory pipeline, one through the facade's
// streaming one, each from its own measurement.
func TestExtrapolationIsDeterministicEverywhere(t *testing.T) {
	for _, b := range benchmarks.All() {
		name := b.Name()
		run := func(streaming bool) vtime.Time {
			tr := measureBench(t, name, 4)
			cfg := machine.GenericDM().Config
			if !streaming {
				_, res, err := inMemory(tr, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res.TotalTime
			}
			out, err := Extrapolate(tr, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return out.Result.TotalTime
		}
		if name == "matmul" || name == "sparse" || name == "mgrid" || name == "poisson" {
			continue // covered by the benchmark package's determinism test
		}
		if a, b2 := run(false), run(true); a != b2 {
			t.Errorf("%s: predictions differ across runs: %v vs %v", name, a, b2)
		}
	}
}

// TestSimulatorDeterminismUnderRandomConfigs: arbitrary (valid) parameter
// combinations must give identical results across repeated simulations,
// streamed or of the in-memory translation.
func TestSimulatorDeterminismUnderRandomConfigs(t *testing.T) {
	tr := measureBench(t, "cyclic", 8)
	f := func(su, btt uint16, pol uint8, cf uint8) bool {
		cfg := machine.GenericDM().Config
		cfg.Comm.StartupTime = vtime.Time(su) * vtime.Microsecond / 4
		cfg.Comm.ByteTransferTime = vtime.Time(btt) % 500
		cfg.Comm.ContentionFactor = float64(cf) / 512
		switch pol % 3 {
		case 0:
			cfg.Policy = sim.Policy{Kind: sim.NoInterrupt, ServiceTime: 5 * vtime.Microsecond}
		case 1:
			cfg.Policy = sim.Policy{Kind: sim.Interrupt,
				InterruptOverhead: 5 * vtime.Microsecond, ServiceTime: 5 * vtime.Microsecond}
		default:
			cfg.Policy = sim.Policy{Kind: sim.Poll,
				PollInterval: 100 * vtime.Microsecond, PollOverhead: vtime.Microsecond,
				ServiceTime: 5 * vtime.Microsecond}
		}
		_, a, err := inMemory(tr, cfg)
		if err != nil {
			return false
		}
		b, err := Extrapolate(tr, cfg)
		if err != nil {
			return false
		}
		c, err := Extrapolate(tr, cfg)
		if err != nil {
			return false
		}
		return a.TotalTime == b.Result.TotalTime && a.Net == b.Result.Net &&
			b.Result.TotalTime == c.Result.TotalTime && b.Result.Net == c.Result.Net
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSortRejectsNonPowerOfTwoThreads: the bitonic network's requirement
// surfaces as a clean measurement error, not a hang or wrong answer.
func TestSortRejectsNonPowerOfTwoThreads(t *testing.T) {
	b, err := benchmarks.ByName("sort")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Measure(b.Factory(benchmarks.Size{N: 64})(3), core.MeasureOptions{})
	if err == nil {
		t.Fatal("sort accepted 3 threads")
	}
	if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
