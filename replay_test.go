package extrap

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// encodeKernel measures a registered benchmark at the given size and
// thread count and returns its XTRP2 encoding.
func encodeKernel(t *testing.T, name string, size benchmarks.Size, threads int) []byte {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(b.Factory(size)(threads), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// eventReplay is the event-replay oracle: the streaming pipeline over
// the compiled cursor behind a plain trace.Reader. Translation cannot
// see the cursor's type, so the simulator replays every event and never
// fast-forwards.
func eventReplay(ctx context.Context, enc []byte, cfg sim.Config) (*core.Prediction, error) {
	ps, err := trace.NewPatternSource(enc)
	if err != nil {
		return nil, err
	}
	return core.ExtrapolateReader(ctx, ps.Header(), struct{ trace.Reader }{ps}, cfg)
}

// bothModes extrapolates enc under cfg through production
// (core.ExtrapolateEncoded: pattern replay with fast-forward) and the
// event-replay oracle, and asserts the predictions are byte-identical
// (the tentpole invariant). It returns the production prediction.
func bothModes(t *testing.T, enc []byte, cfg sim.Config) *core.Prediction {
	t.Helper()
	want, err := eventReplay(context.Background(), enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pattern replay diverged from event replay:\n  pattern: %+v\n  event:   %+v", got.Result, want.Result)
	}
	return got
}

// TestReplayEquivalenceMatrix sweeps kernels × machine models × barrier
// algorithms × processor mappings and asserts pattern-native replay
// (with fast-forward enabled) produces predictions byte-identical to
// flat event-by-event replay in every cell.
func TestReplayEquivalenceMatrix(t *testing.T) {
	kernels := []struct {
		name string
		size benchmarks.Size
	}{
		{"mgrid", benchmarks.Size{N: 8, Iters: 12}},
		{"grid", benchmarks.Size{N: 16, Iters: 20}},
		{"cyclic", benchmarks.Size{N: 64, Iters: 8}},
		{"embar", benchmarks.Size{N: 13}},
	}
	machines := []string{"generic-dm", "cm5", "shared-mem"}
	const threads = 8
	for _, k := range kernels {
		enc := encodeKernel(t, k.name, k.size, threads)
		for _, mn := range machines {
			env, err := machine.ByName(mn)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(k.name+"/"+mn, func(t *testing.T) {
				bothModes(t, enc, env.Config)
			})
		}
		// Barrier algorithms and placement/multiplexing variants on the
		// generic distributed-memory model.
		base := machine.GenericDM().Config
		for _, alg := range []sim.BarrierAlgorithm{sim.LinearBarrier, sim.TreeBarrier, sim.HardwareBarrier} {
			cfg := base
			cfg.Barrier.Algorithm = alg
			if alg == sim.HardwareBarrier {
				cfg.Barrier.HardwareTime = 3 * vtime.Microsecond
			}
			t.Run(k.name+"/barrier-"+alg.String(), func(t *testing.T) {
				bothModes(t, enc, cfg)
			})
		}
		multi := base
		multi.Procs = threads / 2
		multi.Placement = sim.CyclicPlacement
		multi.ContextSwitchTime = 5 * vtime.Microsecond
		t.Run(k.name+"/multiplexed", func(t *testing.T) {
			bothModes(t, enc, multi)
		})
	}
}

// TestReplayEquivalenceBatch: for every config of a what-if batch
// against one measurement, the per-cell production path (pattern replay
// with fast-forward) must equal the materialized oracle — the decoded
// trace translated in full and simulated event by event
// (translate.Translate + sim.Simulate) — and the per-cell side must
// actually fast-forward, or the comparison proves nothing about it.
func TestReplayEquivalenceBatch(t *testing.T) {
	// Grid's default 324 sweeps give fast-forward a loop to skip.
	enc := encodeKernel(t, "grid", benchmarks.Size{N: 64, Iters: 324}, 8)
	tr, err := trace.ReadBinary2(enc)
	if err != nil {
		t.Fatal(err)
	}
	a := machine.GenericDM().Config
	b := a
	b.MipsRatio = 2.0
	c := a
	c.Barrier.Algorithm = sim.TreeBarrier
	before := sim.ReadReplayCounters()
	for i, cfg := range []sim.Config{a, b, c} {
		pt, res, err := inMemory(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := &core.Prediction{Measured1P: tr.Duration(), Ideal: pt.Duration(), Result: res}
		got, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: per-cell pattern replay diverged from the materialized oracle:\n  per-cell: %+v\n  oracle:   %+v",
				i, got.Result, want.Result)
		}
	}
	if ffs := sim.ReadReplayCounters().FastForwards - before.FastForwards; ffs == 0 {
		t.Error("per-cell pattern replay never fast-forwarded")
	}
}

// TestReplayEquivalenceComposed runs every composed-workload preset —
// including the imbalanced farm-stencil — through both replay modes.
// Imbalanced workloads are exactly the shape whose steady state is
// never a pure time-shift, so these also pin down that the fallback
// path (not a wrong fast-forward) handles them.
func TestReplayEquivalenceComposed(t *testing.T) {
	for _, p := range compose.Presets() {
		w := p.Workload()
		sz := w.DefaultSize()
		tr, err := core.Measure(w.Factory(sz)(8), core.MeasureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name(), func(t *testing.T) {
			bothModes(t, buf.Bytes(), machine.GenericDM().Config)
		})
	}
}

// TestFastForwardEngagesAtAllThreadCounts pins fast-forward coverage on
// the loop kernel: grid at its default size (324 sweeps) must skip at
// least 90% of its sweeps at every thread count and processor
// multiplexing, with predictions byte-identical to event replay. It
// reads the process-wide replay counters, so it must not run in
// parallel with other replays.
func TestFastForwardEngagesAtAllThreadCounts(t *testing.T) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	size := g.DefaultSize()
	for _, threads := range []int{8, 16, 32} {
		enc := encodeKernel(t, "grid", size, threads)
		for _, procs := range []int{threads, threads / 2, threads / 4} {
			cfg := machine.GenericDM().Config
			cfg.Procs = procs
			before := sim.ReadReplayCounters()
			got, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			skipped := sim.ReadReplayCounters().IterationsSkipped - before.IterationsSkipped
			if skipped*10 < uint64(size.Iters)*9 {
				t.Errorf("grid/%d threads on %d procs: fast-forward skipped %d of %d sweeps, want ≥ 90%%",
					threads, procs, skipped, size.Iters)
			}
			want, err := eventReplay(context.Background(), enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("grid/%d threads on %d procs: pattern replay diverged from event replay", threads, procs)
			}
		}
	}
}

// bigElem is a collection element large enough for partial transfers.
type bigElem [4096]byte

// adversarialTrace builds a trace that mines into patterns but whose
// engine-level steady state is NOT a pure time-shift, so the
// fast-forward probe must reject it rather than skip unsoundly.
func adversarialTrace(t *testing.T, variant string) []byte {
	t.Helper()
	const threads = 8
	pcfg := pcxx.DefaultConfig(threads)
	pcfg.SizeMode = pcxx.ActualSize
	rt := pcxx.NewRuntime(pcfg)
	c := pcxx.PerThread[bigElem](rt, "buf", 4096)
	var body func(th *pcxx.Thread)
	switch variant {
	case "growing-reads":
		// Transfer size grows by one byte per iteration: the delta
		// rows stay perfectly linear (so the miner compresses the loop
		// into one repeat op), but each iteration's network cost
		// differs — the steady state is never a pure time-shift, and
		// the drifting size register shows up as an exact-class
		// fingerprint slot that can never match.
		body = func(th *pcxx.Thread) {
			for i := 0; i < 160; i++ {
				th.Compute(10 * vtime.Microsecond)
				_ = c.ReadPart(th, (th.ID()+1)%threads, int64(64+i))
				th.Barrier()
			}
		}
	case "late-writes":
		// A pre-loop burst of large remote writes whose deliveries
		// drain slowly through the network DURING the loop: early
		// iteration boundaries see a shrinking in-flight population,
		// so probes must fail until the last late message lands.
		body = func(th *pcxx.Thread) {
			var v bigElem
			for j := 0; j < 20; j++ {
				c.Write(th, (th.ID()+1+j%4)%threads, v)
			}
			for i := 0; i < 160; i++ {
				th.Compute(5 * vtime.Microsecond)
				_ = c.ReadPart(th, (th.ID()+1)%threads, 64)
				th.Barrier()
			}
		}
	default:
		t.Fatalf("unknown variant %q", variant)
	}
	tr, err := rt.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayFallbackAdversarial drives traces engineered to defeat the
// steady-state check — per-iteration drift in transfer sizes, and a
// late-message regime where pre-loop sends land many pattern iterations
// later — and asserts two things: predictions remain byte-identical to
// event replay, and the engine takes the fallback path (fallback
// counter advances) instead of fast-forwarding through a lying
// fingerprint.
func TestReplayFallbackAdversarial(t *testing.T) {
	slow := machine.GenericDM().Config
	slow.Comm.ByteTransferTime = 5 * vtime.Microsecond
	slow.Comm.RecvOccupancy = 200 * vtime.Microsecond
	cases := []struct {
		name     string
		cfg      sim.Config
		wantFwd  bool // fast-forward expected once the transient clears
		banFwd   bool // fast-forward must never engage
		minFalls uint64
	}{
		// Every probe must be rejected: the state drifts forever.
		{name: "growing-reads", cfg: machine.GenericDM().Config, banFwd: true, minFalls: 5},
		// Probes fail while the late writes drain, then converge: the
		// fallback path hands over to a genuine steady state.
		{name: "late-writes", cfg: slow, wantFwd: true, minFalls: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := adversarialTrace(t, tc.name)
			before := sim.ReadReplayCounters()
			bothModes(t, enc, tc.cfg)
			after := sim.ReadReplayCounters()
			falls := after.Fallbacks - before.Fallbacks
			fwds := after.FastForwards - before.FastForwards
			if falls < tc.minFalls {
				t.Errorf("fallbacks delta = %d, want ≥ %d (attempts delta = %d)",
					falls, tc.minFalls, after.Attempts-before.Attempts)
			}
			if tc.banFwd && fwds != 0 {
				t.Errorf("fast-forward engaged %d times on a never-steady trace", fwds)
			}
			if tc.wantFwd && fwds == 0 {
				t.Errorf("fast-forward never engaged after the transient cleared")
			}
		})
	}
}

// TestReplayPhaseSwitchover: a trace with two long loop phases of
// different communication structure. The fast-forward state must reset
// cleanly at the switchover — skipping within each phase, never across
// it — with predictions byte-identical to event replay.
func TestReplayPhaseSwitchover(t *testing.T) {
	const threads = 8
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(threads))
	c := pcxx.PerThread[float64](rt, "x", 8)
	tr, err := rt.Run(func(th *pcxx.Thread) {
		for i := 0; i < 160; i++ {
			th.Compute(20 * vtime.Microsecond)
			_ = c.Read(th, (th.ID()+1)%threads)
			th.Barrier()
		}
		for i := 0; i < 160; i++ {
			th.Compute(5 * vtime.Microsecond)
			_ = c.Read(th, (th.ID()+3)%threads)
			_ = c.Read(th, (th.ID()+5)%threads)
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	before := sim.ReadReplayCounters()
	bothModes(t, buf.Bytes(), machine.GenericDM().Config)
	after := sim.ReadReplayCounters()
	if fwds := after.FastForwards - before.FastForwards; fwds < 2 {
		t.Errorf("fast-forwards delta = %d, want ≥ 2 (one per phase)", fwds)
	}
}

// pollCountingCtx counts Err polls and starts failing after tripAt
// polls (tripAt < 0 never fails) — a deterministic stand-in for a
// deadline firing mid-simulation.
type pollCountingCtx struct {
	polls  int
	tripAt int
	done   chan struct{}
}

func (c *pollCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCountingCtx) Done() <-chan struct{}       { return c.done }
func (c *pollCountingCtx) Value(any) any               { return nil }
func (c *pollCountingCtx) Err() error {
	if c.polls++; c.tripAt >= 0 && c.polls > c.tripAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestReplayCancellationBudget: fast-forward must not stretch the
// engine's cancellation latency — the kernel polls the context at the
// same 8192-event budget as event replay, plus once per fast-forward
// batch. Whatever the total number of polls a pattern-mode run makes,
// a context that starts failing at ANY of those polls must abort the
// run: there is no window a skip can hide in.
func TestReplayCancellationBudget(t *testing.T) {
	enc := encodeKernel(t, "mgrid", benchmarks.Size{N: 16, Iters: 240}, 8)
	cfg := machine.GenericDM().Config

	// Count the polls of a healthy full run.
	counter := &pollCountingCtx{tripAt: -1, done: make(chan struct{})}
	if _, err := core.ExtrapolateEncoded(counter, enc, cfg); err != nil {
		t.Fatal(err)
	}
	total := counter.polls
	if total < 2 {
		t.Fatalf("full run polled the context %d times; the cadence is broken", total)
	}
	// Trip at the first, a middle, and the last poll: every one must
	// surface as an abort — in particular the polls adjacent to the
	// fast-forward skip, which advances the virtual clock by orders of
	// magnitude more events than the 8192-event budget.
	for _, trip := range []int{1, total / 2, total - 1} {
		ctx := &pollCountingCtx{tripAt: trip, done: make(chan struct{})}
		if _, err := core.ExtrapolateEncoded(ctx, enc, cfg); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trip at poll %d of %d: error = %v, want DeadlineExceeded", trip, total, err)
		}
	}
}
