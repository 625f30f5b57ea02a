package sim

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// simulateIn runs Simulate on arena a instead of a pooled one.
func simulateIn(ctx context.Context, a *arena, pt *translate.ParallelTrace, cfg Config) (*Result, error) {
	return a.simulate(ctx, cfg, pt, nil)
}

// randomWorkload builds a measured-and-translated trace with rng-chosen
// imbalance, remote traffic, and barrier count, so arena reuse is
// exercised over many workload shapes rather than one.
func randomWorkload(t *testing.T, rng *rand.Rand, n int) *translate.ParallelTrace {
	t.Helper()
	iters := 1 + rng.Intn(4)
	readEvery := 1 + rng.Intn(3)
	writeEvery := 1 + rng.Intn(4)
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(n))
	c := pcxx.PerThread[float64](rt, "x", 64)
	tr, err := rt.Run(func(th *pcxx.Thread) {
		*c.Local(th, th.ID()) = float64(th.ID())
		th.Barrier()
		for it := 0; it < iters; it++ {
			th.Compute(vtime.Time(th.ID()%4+1) * 15 * vtime.Microsecond)
			if it%readEvery == 0 {
				_ = c.Read(th, (th.ID()+1+it)%n)
			}
			if it%writeEvery == 0 {
				c.Write(th, (th.ID()+n-1)%n, float64(it))
			}
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// randomConfig draws one machine model spanning the engine's feature
// matrix: every barrier algorithm (model-based and message-based),
// several topologies, all service policies, multithreaded placements,
// and clustering.
func randomConfig(rng *rand.Rand, n int) Config {
	cfg := policyConfig(Interrupt, 0)
	switch rng.Intn(3) {
	case 0:
		cfg.Policy = Policy{Kind: Interrupt, InterruptOverhead: 5 * vtime.Microsecond, ServiceTime: 10 * vtime.Microsecond}
	case 1:
		cfg.Policy = Policy{Kind: NoInterrupt, ServiceTime: 10 * vtime.Microsecond}
	case 2:
		cfg.Policy = Policy{Kind: Poll, PollInterval: vtime.Time(20+10*rng.Intn(4)) * vtime.Microsecond, PollOverhead: 2 * vtime.Microsecond, ServiceTime: 10 * vtime.Microsecond}
	}
	cfg.MipsRatio = []float64{0.41, 0.5, 1.0, 2.0}[rng.Intn(4)]
	cfg.Comm.StartupTime = vtime.Time(rng.Intn(100)) * vtime.Microsecond
	cfg.Comm.ByteTransferTime = vtime.Time(rng.Intn(200)) * vtime.Nanosecond
	cfg.Comm.Topology = []network.Topology{network.Bus{}, network.Ring{}, network.Mesh2D{}, network.Hypercube{}}[rng.Intn(4)]
	cfg.Barrier.Algorithm = []BarrierAlgorithm{LinearBarrier, TreeBarrier, HardwareBarrier}[rng.Intn(3)]
	if cfg.Barrier.Algorithm != HardwareBarrier {
		cfg.Barrier.ByMsgs = rng.Intn(2) == 0
	}
	// Procs must divide n; pick a random divisor (1 ⇒ fully
	// multithreaded, n ⇒ one thread per processor).
	divs := []int{1, n}
	for d := 2; d < n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	cfg.Procs = divs[rng.Intn(len(divs))]
	if cfg.Procs < n {
		cfg.ContextSwitchTime = vtime.Time(rng.Intn(5)) * vtime.Microsecond
		if rng.Intn(2) == 0 {
			cfg.Placement = CyclicPlacement
		}
	}
	if cfg.Procs%2 == 0 && rng.Intn(2) == 0 {
		cfg.ClusterSize = 2
		cfg.IntraComm = network.Config{
			StartupTime:      vtime.Time(rng.Intn(10)) * vtime.Microsecond,
			ByteTransferTime: vtime.Time(rng.Intn(20)) * vtime.Nanosecond,
			RecvOccupancy:    vtime.Time(rng.Intn(3)) * vtime.Microsecond,
			Topology:         network.Bus{},
			RequestBytes:     16,
		}
	}
	cfg.EmitTrace = true
	return cfg
}

// assertSameResult compares two simulation results event-for-event
// (emitted traces byte-compared) and field-for-field.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if (want.Trace == nil) != (got.Trace == nil) {
		t.Fatalf("%s: trace presence differs: want %v, got %v", label, want.Trace != nil, got.Trace != nil)
	}
	if want.Trace != nil {
		wantEvs, gotEvs := want.Trace.Events, got.Trace.Events
		if len(wantEvs) != len(gotEvs) {
			t.Fatalf("%s: emitted %d events, want %d", label, len(gotEvs), len(wantEvs))
		}
		for i := range wantEvs {
			if wantEvs[i] != gotEvs[i] {
				t.Fatalf("%s: event %d differs:\nwant %+v\ngot  %+v", label, i, wantEvs[i], gotEvs[i])
			}
		}
		var wantBuf, gotBuf bytes.Buffer
		if err := trace.WriteBinary2(&wantBuf, want.Trace); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary2(&gotBuf, got.Trace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			t.Fatalf("%s: encoded emitted traces differ", label)
		}
	}
	wantRes, gotRes := *want, *got
	wantRes.Trace, gotRes.Trace = nil, nil
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("%s: results differ:\nwant %+v\ngot  %+v", label, wantRes, gotRes)
	}
}

// TestSimulateBatchMatchesPerCell: a batch of K configs simulated one
// after another over one arena on a shared translated trace must equal
// fresh simulation event-for-event, for randomized workloads and
// mixed-model batches (different barrier algorithms, topologies,
// policies, and placements in ONE batch).
func TestSimulateBatchMatchesPerCell(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := []int{2, 4, 8}[rng.Intn(3)]
		pt := randomWorkload(t, rng, n)
		k := 2 + rng.Intn(4)
		cfgs := make([]Config, k)
		for i := range cfgs {
			cfgs[i] = randomConfig(rng, n)
		}
		a := newArena()
		for i, cfg := range cfgs {
			got, err := simulateIn(ctx, a, pt, cfg)
			if err != nil {
				t.Fatalf("trial %d lane %d: batch: %v", trial, i, err)
			}
			want, err := simulateIn(ctx, newArena(), pt, cfg)
			if err != nil {
				t.Fatalf("trial %d lane %d: per-cell: %v", trial, i, err)
			}
			assertSameResult(t, labelFor(trial, i, n, cfg), want, got)
		}
	}
}

func labelFor(trial, lane, n int, cfg Config) string {
	return "trial " + itoa(trial) + " lane " + itoa(lane) +
		" (n=" + itoa(n) + " procs=" + itoa(cfg.Procs) +
		" bar=" + itoa(int(cfg.Barrier.Algorithm)) + ")"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestArenaReuseAcrossHeterogeneousRuns reuses ONE arena across
// different workloads and models interleaved and demands bit-identical
// results to a fresh arena every time.
func TestArenaReuseAcrossHeterogeneousRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type cell struct {
		pt  *translate.ParallelTrace
		cfg Config
	}
	var cells []cell
	for _, n := range []int{4, 2, 8, 4} {
		pt := randomWorkload(t, rng, n)
		for k := 0; k < 3; k++ {
			cells = append(cells, cell{pt, randomConfig(rng, n)})
		}
	}
	a := newArena()
	for i, c := range cells {
		want, err := simulateIn(context.Background(), newArena(), c.pt, c.cfg)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got, err := simulateIn(context.Background(), a, c.pt, c.cfg)
		if err != nil {
			t.Fatalf("cell %d (arena): %v", i, err)
		}
		assertSameResult(t, "cell "+itoa(i), want, got)
	}
}

// TestSimulateBatchLaneError: a simulation that fails mid-run on a
// shared arena (here a deadlocked trace: one thread waits at a barrier
// the other never enters) surfaces its error and leaves the arena
// reusable — the runs after it stay bit-identical to fresh simulations.
func TestSimulateBatchLaneError(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	pt := randomWorkload(t, rng, 2)
	stuck := &translate.ParallelTrace{
		NumThreads: 2,
		Threads: [][]trace.Event{
			{
				{Time: 0, Kind: trace.KindThreadStart, Thread: 0, Arg0: 2},
				{Time: 10 * vtime.Microsecond, Kind: trace.KindBarrierEntry, Thread: 0, Arg0: 0},
			},
			{{Time: 0, Kind: trace.KindThreadStart, Thread: 1, Arg0: 2}},
		},
		Barriers: 1,
	}
	a := newArena()
	for lane := 0; lane < 4; lane++ {
		cfg := randomConfig(rng, 2)
		if lane == 1 {
			if _, err := simulateIn(ctx, a, stuck, zeroConfig()); err == nil || !strings.Contains(err.Error(), "did not finish") {
				t.Fatalf("deadlocked lane: err = %v, want a mid-run deadlock error", err)
			}
			continue
		}
		got, err := simulateIn(ctx, a, pt, cfg)
		if err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
		want, err := simulateIn(ctx, newArena(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "lane "+itoa(lane), want, got)
	}
}
