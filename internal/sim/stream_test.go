package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// richMeasurement produces a merged 1-processor trace with compute
// imbalance, remote reads and writes, phases, and several barriers — a
// workload that touches every engine path.
func richMeasurement(t *testing.T, n int) *trace.Trace {
	t.Helper()
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(n))
	c := pcxx.PerThread[float64](rt, "x", 128)
	tr, err := rt.Run(func(th *pcxx.Thread) {
		*c.Local(th, th.ID()) = float64(th.ID())
		th.Barrier()
		for it := 0; it < 4; it++ {
			th.Phase("iter", func() {
				th.Compute(vtime.Time(th.ID()%3+1) * 20 * vtime.Microsecond)
				_ = c.Read(th, (th.ID()+1)%n)
				if it%2 == 0 {
					c.Write(th, (th.ID()+n-1)%n, 1.0)
				}
			})
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// streamEquivConfigs enumerates environments spanning the engine's
// feature matrix.
func streamEquivConfigs(n int) map[string]Config {
	cfgs := map[string]Config{
		"zero-cost":    zeroConfig(),
		"interrupt":    policyConfig(Interrupt, 0),
		"no-interrupt": policyConfig(NoInterrupt, 0),
		"poll":         policyConfig(Poll, 50*vtime.Microsecond),
	}
	msgbar := policyConfig(Interrupt, 0)
	msgbar.Barrier.ByMsgs = true
	cfgs["linear-msg-barrier"] = msgbar

	tree := policyConfig(Interrupt, 0)
	tree.Barrier.Algorithm = TreeBarrier
	tree.Barrier.ByMsgs = true
	cfgs["tree-msg-barrier"] = tree

	hw := policyConfig(Interrupt, 0)
	hw.Barrier.Algorithm = HardwareBarrier
	cfgs["hardware-barrier"] = hw

	multi := policyConfig(Poll, 30*vtime.Microsecond)
	multi.Procs = n / 2
	multi.ContextSwitchTime = 3 * vtime.Microsecond
	cfgs["multithread-block"] = multi

	cyc := multi
	cyc.Placement = CyclicPlacement
	cfgs["multithread-cyclic"] = cyc
	return cfgs
}

// TestStreamMatchesSlice: for every environment, the streaming pipeline
// (decode-free source → translate.Stream → SimulateStream) must produce
// results and emitted traces byte-identical to the in-memory path.
func TestStreamMatchesSlice(t *testing.T) {
	const n = 8
	tr := richMeasurement(t, n)
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range streamEquivConfigs(n) {
		cfg.EmitTrace = true
		want, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatalf("%s: slice path: %v", name, err)
		}
		s, err := translate.NewStream(tr.Header(), tr.Reader(), translate.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateStream(context.Background(), s, cfg)
		if err != nil {
			t.Fatalf("%s: stream path: %v", name, err)
		}

		var wantBuf, gotBuf bytes.Buffer
		if err := trace.WriteBinary2(&wantBuf, want.Trace); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary2(&gotBuf, got.Trace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			t.Errorf("%s: emitted traces differ between stream and slice paths", name)
		}
		wantRes, gotRes := *want, *got
		wantRes.Trace, gotRes.Trace = nil, nil
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Errorf("%s: results differ:\nslice:  %+v\nstream: %+v", name, wantRes, gotRes)
		}
	}
}

// TestStreamOverBinaryDecoder runs the complete bounded-memory chain —
// binary decode → streaming translate → streaming simulate — and checks
// the prediction against the in-memory chain. The compiled cursor sits
// behind a plain trace.Reader, so every event is replayed.
func TestStreamOverBinaryDecoder(t *testing.T) {
	const n = 4
	tr := richMeasurement(t, n)
	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, tr); err != nil {
		t.Fatal(err)
	}
	ps, err := trace.NewPatternSource(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := translate.NewStream(ps.Header(), struct{ trace.Reader }{ps}, translate.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyConfig(Interrupt, 0)
	got, err := SimulateStream(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("results differ:\nslice:  %+v\nstream: %+v", want, got)
	}
}

// TestStreamSourceErrorAborts: a malformed source surfaces its
// validation error through the simulation instead of panicking or
// silently truncating.
func TestStreamSourceErrorAborts(t *testing.T) {
	// Thread 0 exits a barrier thread 1 never enters: inline validation
	// must fail mid-stream.
	evs := []trace.Event{
		{Time: 1, Kind: trace.KindThreadStart, Thread: 0, Arg0: 2},
		{Time: 1, Kind: trace.KindThreadStart, Thread: 1, Arg0: 2},
		{Time: 2, Kind: trace.KindBarrierEntry, Thread: 0},
		{Time: 3, Kind: trace.KindBarrierExit, Thread: 0},
		{Time: 4, Kind: trace.KindThreadEnd, Thread: 0},
		{Time: 5, Kind: trace.KindThreadEnd, Thread: 1},
	}
	s, err := translate.NewStream(trace.Header{NumThreads: 2}, trace.NewSliceReader(evs), translate.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateStream(context.Background(), s, zeroConfig())
	if err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("SimulateStream = %v, want barrier validation error", err)
	}
}
