package sim

import (
	"context"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// measureAndTranslate runs a pcxx program and translates its trace.
func measureAndTranslate(t *testing.T, n int, body func(*pcxx.Thread)) *translate.ParallelTrace {
	t.Helper()
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(n))
	tr, err := rt.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// measureWithSetup is measureAndTranslate with a collection-setup hook.
func measureWithSetup(t *testing.T, n int, setup func(*pcxx.Runtime) func(*pcxx.Thread)) *translate.ParallelTrace {
	t.Helper()
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(n))
	body := setup(rt)
	tr, err := rt.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// zeroConfig is an environment with free communication and
// synchronization: the simulated time must equal the translated ideal
// parallel time exactly.
func zeroConfig() Config {
	return Config{
		MipsRatio: 1.0,
		Policy:    Policy{Kind: Interrupt},
		Comm: network.Config{
			Topology: network.Bus{},
		},
		Barrier: BarrierConfig{Algorithm: LinearBarrier, ByMsgs: false},
	}
}

func TestZeroCostMatchesIdealTime(t *testing.T) {
	pt := measureAndTranslate(t, 4, func(th *pcxx.Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(vtime.Time(th.ID()*17+i*31+10) * vtime.Microsecond)
			th.Barrier()
		}
	})
	res, err := Simulate(context.Background(), pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != pt.Duration() {
		t.Fatalf("zero-cost sim time %v != ideal %v", res.TotalTime, pt.Duration())
	}
	if res.Barriers != 3 {
		t.Errorf("Barriers = %d, want 3", res.Barriers)
	}
}

func TestZeroCostWithRemoteReads(t *testing.T) {
	pt := measureWithSetup(t, 4, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 8)
		return func(th *pcxx.Thread) {
			*c.Local(th, th.ID()) = 1
			th.Barrier()
			th.Compute(10 * vtime.Microsecond)
			_ = c.Read(th, (th.ID()+1)%4)
			th.Compute(10 * vtime.Microsecond)
			th.Barrier()
		}
	})
	res, err := Simulate(context.Background(), pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != pt.Duration() {
		t.Fatalf("zero-cost sim time %v != ideal %v", res.TotalTime, pt.Duration())
	}
	var reads int64
	for _, s := range res.Threads {
		reads += s.RemoteReads
	}
	if reads != 4 {
		t.Errorf("RemoteReads = %d, want 4", reads)
	}
}

func TestMipsRatioScalesCompute(t *testing.T) {
	pt := measureAndTranslate(t, 2, func(th *pcxx.Thread) {
		th.Compute(100 * vtime.Microsecond)
		th.Barrier()
	})
	for _, ratio := range []float64{0.5, 1.0, 2.0} {
		cfg := zeroConfig()
		cfg.MipsRatio = ratio
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := (100 * vtime.Microsecond).Scale(ratio)
		if res.TotalTime != want {
			t.Errorf("ratio %g: time %v, want %v", ratio, res.TotalTime, want)
		}
	}
}

func TestRemoteReadLatencyHandComputed(t *testing.T) {
	// Two threads; thread 1 reads thread 0's element once. With the
	// Interrupt policy and owner idle (waiting at a barrier), the total
	// remote latency is:
	//   send overhead (construct+startup) + request transit
	//   + service + reply send overhead + reply transit + recv overhead.
	pt := measureWithSetup(t, 2, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 1000) // 1000-byte elements
		return func(th *pcxx.Thread) {
			th.Barrier()
			if th.ID() == 1 {
				th.Compute(10 * vtime.Microsecond)
				_ = c.Read(th, 0)
			}
			th.Barrier()
		}
	})
	cfg := zeroConfig()
	cfg.Comm = network.Config{
		StartupTime:      10 * vtime.Microsecond,
		ByteTransferTime: 100 * vtime.Nanosecond, // 0.1 µs/B
		MsgConstructTime: 2 * vtime.Microsecond,
		HopTime:          0,
		RecvOverhead:     5 * vtime.Microsecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	cfg.Policy = Policy{Kind: Interrupt, ServiceTime: 3 * vtime.Microsecond}
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request: 12 (send ovh) + 1.6 (16B transit) = 13.6; owner waits at
	// barrier 1 so service starts on arrival: 3 (service) + 12 (reply
	// send ovh); reply transit 100µs (1000B·0.1); recv 5.
	wantLatency := vtime.FromMicros(12 + 1.6 + 3 + 12 + 100 + 5)
	// Thread 1: barrier exits at 0 (zero-cost barrier), computes 10µs,
	// then the read; total = 10µs + latency.
	want := 10*vtime.Microsecond + wantLatency
	if res.Threads[1].CommWait != wantLatency {
		t.Errorf("CommWait = %v, want %v", res.Threads[1].CommWait, wantLatency)
	}
	if res.TotalTime != want {
		t.Errorf("TotalTime = %v, want %v", res.TotalTime, want)
	}
}

func TestLinearBarrierAnalyticCost(t *testing.T) {
	// Shared-memory linear barrier with Table-1-style parameters and
	// perfectly balanced threads: release = entry + EntryTime + CheckTime
	// + ModelTime; slaves exit at release + ExitCheckTime + ExitTime.
	pt := measureAndTranslate(t, 4, func(th *pcxx.Thread) {
		th.Compute(100 * vtime.Microsecond)
		th.Barrier()
	})
	cfg := zeroConfig()
	cfg.Barrier = BarrierConfig{
		Algorithm:     LinearBarrier,
		EntryTime:     5 * vtime.Microsecond,
		ExitTime:      5 * vtime.Microsecond,
		CheckTime:     2 * vtime.Microsecond,
		ExitCheckTime: 2 * vtime.Microsecond,
		ModelTime:     10 * vtime.Microsecond,
		ByMsgs:        false,
	}
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 100 (compute) + 5 (entry) + 2 (check) + 10 (model) + 2 (exit
	// check) + 5 (exit) = 124 µs for slaves; ThreadEnd immediately after.
	want := vtime.FromMicros(124)
	if res.TotalTime != want {
		t.Fatalf("TotalTime = %v, want %v", res.TotalTime, want)
	}
}

func TestLinearMessageBarrierScalesLinearly(t *testing.T) {
	// With message-based release, barrier cost grows ~linearly in n
	// because the master sends releases one at a time.
	cost := func(n int) vtime.Time {
		pt := measureAndTranslate(t, n, func(th *pcxx.Thread) {
			th.Compute(10 * vtime.Microsecond)
			th.Barrier()
		})
		cfg := zeroConfig()
		cfg.Barrier = DefaultBarrier()
		cfg.Comm = network.Config{
			StartupTime:      10 * vtime.Microsecond,
			ByteTransferTime: 50 * vtime.Nanosecond,
			Topology:         network.Bus{},
			RequestBytes:     16,
		}
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	c8, c16, c32 := cost(8), cost(16), cost(32)
	if c16 <= c8 || c32 <= c16 {
		t.Fatalf("barrier cost not increasing: %v, %v, %v", c8, c16, c32)
	}
	// Doubling n should roughly double the release chain tail.
	growth := float64(c32-c16) / float64(c16-c8)
	if growth < 1.5 || growth > 2.6 {
		t.Errorf("linear barrier growth factor = %.2f, want ≈2", growth)
	}
}

func TestTreeBarrierBeatsLinearAtScale(t *testing.T) {
	run := func(alg BarrierAlgorithm) vtime.Time {
		pt := measureAndTranslate(t, 32, func(th *pcxx.Thread) {
			th.Compute(10 * vtime.Microsecond)
			th.Barrier()
		})
		cfg := zeroConfig()
		cfg.Barrier = DefaultBarrier()
		cfg.Barrier.Algorithm = alg
		cfg.Comm = network.Config{
			StartupTime:      10 * vtime.Microsecond,
			ByteTransferTime: 50 * vtime.Nanosecond,
			Topology:         network.Bus{},
			RequestBytes:     16,
		}
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	linear, tree := run(LinearBarrier), run(TreeBarrier)
	if tree >= linear {
		t.Fatalf("tree barrier (%v) not faster than linear (%v) at n=32", tree, linear)
	}
}

func TestHardwareBarrierConstant(t *testing.T) {
	cost := func(n int) vtime.Time {
		pt := measureAndTranslate(t, n, func(th *pcxx.Thread) {
			th.Compute(10 * vtime.Microsecond)
			th.Barrier()
		})
		cfg := zeroConfig()
		cfg.Barrier = BarrierConfig{
			Algorithm:    HardwareBarrier,
			HardwareTime: 3 * vtime.Microsecond,
		}
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	if c4, c32 := cost(4), cost(32); c4 != c32 {
		t.Errorf("hardware barrier cost varies with n: %v vs %v", c4, c32)
	}
}

// policyScenario: thread 0 computes a long block while threads 1..n-1
// each read one of thread 0's elements early — the service policy decides
// how long they wait.
func policyScenario(t *testing.T, n int) *translate.ParallelTrace {
	return measureWithSetup(t, n, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 256)
		return func(th *pcxx.Thread) {
			*c.Local(th, th.ID()) = 1
			th.Barrier()
			if th.ID() == 0 {
				th.Compute(5 * vtime.Millisecond)
			} else {
				th.Compute(10 * vtime.Microsecond)
				_ = c.Read(th, 0)
			}
			th.Barrier()
		}
	})
}

func policyConfig(kind PolicyKind, interval vtime.Time) Config {
	cfg := zeroConfig()
	cfg.Comm = network.Config{
		StartupTime:      10 * vtime.Microsecond,
		ByteTransferTime: 100 * vtime.Nanosecond,
		MsgConstructTime: 2 * vtime.Microsecond,
		RecvOverhead:     5 * vtime.Microsecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	cfg.Policy = Policy{
		Kind:              kind,
		PollInterval:      interval,
		PollOverhead:      1 * vtime.Microsecond,
		InterruptOverhead: 10 * vtime.Microsecond,
		ServiceTime:       5 * vtime.Microsecond,
	}
	cfg.Barrier = DefaultBarrier()
	cfg.Barrier.ByMsgs = false
	return cfg
}

func TestPolicyOrdering(t *testing.T) {
	pt := policyScenario(t, 4)
	interrupt, err := Simulate(context.Background(), pt, policyConfig(Interrupt, 0))
	if err != nil {
		t.Fatal(err)
	}
	poll, err := Simulate(context.Background(), pt, policyConfig(Poll, 100*vtime.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	noInt, err := Simulate(context.Background(), pt, policyConfig(NoInterrupt, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Readers' comm wait: interrupt ≤ poll ≤ no-interrupt in this
	// scenario (owner computes 5ms; no-interrupt readers wait for the
	// owner's barrier).
	iw, pw, nw := interrupt.Threads[1].CommWait, poll.Threads[1].CommWait, noInt.Threads[1].CommWait
	if !(iw < pw && pw < nw) {
		t.Fatalf("comm waits: interrupt %v, poll %v, no-interrupt %v — want strictly increasing", iw, pw, nw)
	}
	// Under no-interrupt, readers wait ~until the owner's 5ms compute
	// ends.
	if nw < 4*vtime.Millisecond {
		t.Errorf("no-interrupt comm wait %v, want ≈5ms", nw)
	}
	// Poll readers wait no more than ~one poll interval plus overheads.
	if pw > 300*vtime.Microsecond {
		t.Errorf("poll comm wait %v, want ≲ poll interval", pw)
	}
}

func TestPollIntervalTradeoff(t *testing.T) {
	// Finer polling answers requests sooner but charges the owner more
	// overhead; the reader wait must be monotone in the interval.
	pt := policyScenario(t, 2)
	w100, err := Simulate(context.Background(), pt, policyConfig(Poll, 100*vtime.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	w1000, err := Simulate(context.Background(), pt, policyConfig(Poll, 1000*vtime.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if w100.Threads[1].CommWait >= w1000.Threads[1].CommWait {
		t.Errorf("poll 100µs wait %v not below poll 1000µs wait %v",
			w100.Threads[1].CommWait, w1000.Threads[1].CommWait)
	}
	// But the owner pays more poll overhead at 100µs.
	if w100.Threads[0].Service <= w1000.Threads[0].Service {
		t.Errorf("poll 100µs owner service %v not above poll 1000µs %v",
			w100.Threads[0].Service, w1000.Threads[0].Service)
	}
}

func TestDeterminism(t *testing.T) {
	pt := policyScenario(t, 8)
	cfg := policyConfig(Interrupt, 0)
	cfg.Comm.ContentionFactor = 0.1
	a, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.Net != b.Net {
		t.Fatalf("simulation not deterministic: %v vs %v", a.TotalTime, b.TotalTime)
	}
	for i := range a.Threads {
		if a.Threads[i] != b.Threads[i] {
			t.Fatalf("thread %d stats differ between runs", i)
		}
	}
}

func TestMultithreadedProcessors(t *testing.T) {
	// 8 threads of pure balanced compute on 8, 4, 2, 1 processors: time
	// scales by the multiplexing factor.
	pt := measureAndTranslate(t, 8, func(th *pcxx.Thread) {
		th.Compute(100 * vtime.Microsecond)
		th.Barrier()
	})
	base := vtime.Time(0)
	for _, procs := range []int{8, 4, 2, 1} {
		cfg := zeroConfig()
		cfg.Procs = procs
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := vtime.Time(8/procs) * 100 * vtime.Microsecond
		if res.TotalTime != want {
			t.Errorf("procs=%d: time %v, want %v", procs, res.TotalTime, want)
		}
		if procs == 8 {
			base = res.TotalTime
		} else if res.TotalTime <= base {
			t.Errorf("procs=%d not slower than 8-proc run", procs)
		}
	}
}

func TestMultithreadContextSwitchCost(t *testing.T) {
	pt := measureAndTranslate(t, 4, func(th *pcxx.Thread) {
		th.Compute(50 * vtime.Microsecond)
		th.Barrier()
	})
	cfg := zeroConfig()
	cfg.Procs = 2
	cfg.ContextSwitchTime = 7 * vtime.Microsecond
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two threads per proc: 50 + switch + 50 = 107µs to the last barrier
	// entry; after the (free) release each thread needs the CPU again to
	// reach its thread-end event, costing two more switches: 121µs.
	if res.TotalTime != 121*vtime.Microsecond {
		t.Errorf("TotalTime = %v, want 121µs", res.TotalTime)
	}
	var cpuWait vtime.Time
	for _, s := range res.Threads {
		cpuWait += s.CPUWait
	}
	if cpuWait == 0 {
		t.Error("no CPU wait recorded on multithreaded processors")
	}
}

func TestInvalidConfigs(t *testing.T) {
	pt := measureAndTranslate(t, 4, func(th *pcxx.Thread) { th.Barrier() })
	bad := []func(*Config){
		func(c *Config) { c.MipsRatio = -1 },
		func(c *Config) { c.Procs = 3 },  // 4 % 3 != 0
		func(c *Config) { c.Procs = 8 },  // more procs than threads
		func(c *Config) { c.Procs = -1 }, // negative
		func(c *Config) { c.Policy.Kind = Poll; c.Policy.PollInterval = 0 },
		func(c *Config) { c.Barrier.ByMsgs = true; c.Barrier.MsgSize = 0 },
		func(c *Config) { c.Comm.StartupTime = -1 },
		func(c *Config) { c.ContextSwitchTime = -1 },
	}
	for i, mutate := range bad {
		cfg := zeroConfig()
		mutate(&cfg)
		if _, err := Simulate(context.Background(), pt, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEmitTrace(t *testing.T) {
	pt := measureWithSetup(t, 2, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 64)
		return func(th *pcxx.Thread) {
			th.Barrier()
			if th.ID() == 1 {
				_ = c.Read(th, 0)
			}
			th.Barrier()
		}
	})
	cfg := policyConfig(Interrupt, 0)
	cfg.Barrier = DefaultBarrier() // message barrier → MsgSend events
	cfg.EmitTrace = true
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("EmitTrace produced no trace")
	}
	s := trace.ComputeStats(res.Trace)
	if s.PerKind[trace.KindBarrierEntry] != 4 || s.PerKind[trace.KindBarrierExit] != 4 {
		t.Errorf("barrier events = %d/%d, want 4/4",
			s.PerKind[trace.KindBarrierEntry], s.PerKind[trace.KindBarrierExit])
	}
	if s.MsgSends == 0 {
		t.Error("no message events in extrapolated trace")
	}
	// Trace must be time-sorted.
	var last vtime.Time
	for i, e := range res.Trace.Events {
		if e.Time < last {
			t.Fatalf("extrapolated trace unsorted at %d", i)
		}
		last = e.Time
	}
}

func TestContentionSlowsCommunication(t *testing.T) {
	// All threads read from thread 0 simultaneously over a bus.
	pt := measureWithSetup(t, 8, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 4096)
		return func(th *pcxx.Thread) {
			*c.Local(th, th.ID()) = 1
			th.Barrier()
			if th.ID() != 0 {
				_ = c.Read(th, 0)
			}
			th.Barrier()
		}
	})
	run := func(factor float64) vtime.Time {
		cfg := policyConfig(Interrupt, 0)
		cfg.Comm.ContentionFactor = factor
		res, err := Simulate(context.Background(), pt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	free, contended := run(0), run(0.5)
	if contended <= free {
		t.Errorf("contention did not slow the run: %v vs %v", contended, free)
	}
}

func TestClusteredCommunication(t *testing.T) {
	// Threads 0-3 on procs 0-3 (cluster 0), 4-7 on 4-7 (cluster 1):
	// intra-cluster reads must be much cheaper than inter-cluster ones
	// when the intra network is shared-memory-like.
	mk := func(readFrom func(id int) int) *translate.ParallelTrace {
		return measureWithSetup(t, 8, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			c := pcxx.PerThread[float64](rt, "p", 1024)
			return func(th *pcxx.Thread) {
				*c.Local(th, th.ID()) = 1
				th.Barrier()
				if th.ID() == 1 {
					_ = c.Read(th, readFrom(th.ID()))
				}
				th.Barrier()
			}
		})
	}
	cfg := policyConfig(Interrupt, 0)
	cfg.ClusterSize = 4
	cfg.IntraComm = network.Config{
		StartupTime:      500 * vtime.Nanosecond,
		ByteTransferTime: 5 * vtime.Nanosecond, // 200 MB/s
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	intra, err := Simulate(context.Background(), mk(func(int) int { return 0 }), cfg) // 1 reads 0: same cluster
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Simulate(context.Background(), mk(func(int) int { return 7 }), cfg) // 1 reads 7: cross cluster
	if err != nil {
		t.Fatal(err)
	}
	if intra.Threads[1].CommWait >= inter.Threads[1].CommWait {
		t.Errorf("intra-cluster read (%v) not cheaper than inter-cluster (%v)",
			intra.Threads[1].CommWait, inter.Threads[1].CommWait)
	}
}

func TestRemoteWriteFireAndForget(t *testing.T) {
	pt := measureWithSetup(t, 2, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 64)
		return func(th *pcxx.Thread) {
			th.Barrier()
			if th.ID() == 0 {
				c.Write(th, 1, 42)
				th.Compute(10 * vtime.Microsecond)
			}
			th.Barrier()
		}
	})
	cfg := policyConfig(Interrupt, 0)
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].RemoteWrites != 1 {
		t.Errorf("RemoteWrites = %d, want 1", res.Threads[0].RemoteWrites)
	}
	// The writer pays only the send overhead, not a round trip.
	sendOv := cfg.Comm.MsgConstructTime + cfg.Comm.StartupTime
	if res.Threads[0].CommWait != sendOv {
		t.Errorf("writer CommWait = %v, want %v (send overhead only)", res.Threads[0].CommWait, sendOv)
	}
}

func TestStatsAccounting(t *testing.T) {
	pt := policyScenario(t, 4)
	res, err := Simulate(context.Background(), pt, policyConfig(Interrupt, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Threads {
		if s.Finish <= 0 || s.Finish > res.TotalTime {
			t.Errorf("thread %d finish %v outside (0, %v]", i, s.Finish, res.TotalTime)
		}
		if s.Compute < 0 || s.CommWait < 0 || s.BarrierWait < 0 || s.Service < 0 {
			t.Errorf("thread %d has negative stat: %+v", i, s)
		}
		if s.Barriers != 2 {
			t.Errorf("thread %d barriers = %d, want 2", i, s.Barriers)
		}
	}
	if res.TotalCompute() == 0 {
		t.Error("no compute recorded")
	}
	if res.Net.Messages == 0 {
		t.Error("no messages recorded")
	}
	if res.CompCommRatio() < 0 {
		t.Error("comp/comm ratio should be finite when communication happened")
	}
}

func TestSpeedupShape(t *testing.T) {
	// A balanced compute-heavy program must show near-linear scaling
	// under the default config (the Embar expectation of Fig 4): the
	// n-thread program does n× the 1-thread program's work, so its
	// simulated parallel time should stay close to the 1-thread time.
	simT := func(n int) vtime.Time {
		pt := measureAndTranslate(t, n, func(th *pcxx.Thread) {
			for i := 0; i < 4; i++ {
				th.Compute(10 * vtime.Millisecond)
				th.Barrier()
			}
		})
		res, err := Simulate(context.Background(), pt, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	t1, t8 := simT(1), simT(8)
	if t8 > t1*12/10 {
		t.Errorf("compute-bound program scaled poorly: t1=%v t8=%v", t1, t8)
	}
}

func TestTraceWithoutThreadEndEvents(t *testing.T) {
	// A hand-built parallel trace whose threads stop after their last
	// barrier exit (no thread-end records): the simulator must treat the
	// cursor running out as completion rather than deadlocking.
	pt := &translate.ParallelTrace{
		NumThreads: 2,
		Threads: [][]trace.Event{
			{
				{Time: 0, Kind: trace.KindThreadStart, Thread: 0, Arg0: 2},
				{Time: 10 * vtime.Microsecond, Kind: trace.KindBarrierEntry, Thread: 0, Arg0: 0},
				{Time: 20 * vtime.Microsecond, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 0},
			},
			{
				{Time: 0, Kind: trace.KindThreadStart, Thread: 1, Arg0: 2},
				{Time: 20 * vtime.Microsecond, Kind: trace.KindBarrierEntry, Thread: 1, Arg0: 0},
				{Time: 20 * vtime.Microsecond, Kind: trace.KindBarrierExit, Thread: 1, Arg0: 0},
			},
		},
		Barriers: 1,
	}
	res, err := Simulate(context.Background(), pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != 20*vtime.Microsecond {
		t.Fatalf("TotalTime = %v, want 20µs", res.TotalTime)
	}
}

func TestEmptyParallelTraceRejected(t *testing.T) {
	if _, err := Simulate(context.Background(), &translate.ParallelTrace{}, zeroConfig()); err == nil {
		t.Error("empty parallel trace accepted")
	}
}

func TestThreadsWithNoEventsFinishImmediately(t *testing.T) {
	pt := &translate.ParallelTrace{
		NumThreads: 2,
		Threads: [][]trace.Event{
			{
				{Time: 0, Kind: trace.KindThreadStart, Thread: 0, Arg0: 2},
				{Time: 5 * vtime.Microsecond, Kind: trace.KindThreadEnd, Thread: 0},
			},
			{}, // thread 1 recorded nothing
		},
	}
	res, err := Simulate(context.Background(), pt, zeroConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != 5*vtime.Microsecond {
		t.Fatalf("TotalTime = %v", res.TotalTime)
	}
}

func TestPollWithMultithreading(t *testing.T) {
	// The poll policy's chunked compute must compose with CPU
	// multiplexing: 4 threads on 2 processors, long computes, remote
	// reads answered at poll boundaries.
	pt := measureWithSetup(t, 4, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "p", 64)
		return func(th *pcxx.Thread) {
			*c.Local(th, th.ID()) = 1
			th.Barrier()
			if th.ID() == 0 {
				th.Compute(2 * vtime.Millisecond)
			} else {
				th.Compute(10 * vtime.Microsecond)
				_ = c.Read(th, 0)
			}
			th.Barrier()
		}
	})
	cfg := policyConfig(Poll, 200*vtime.Microsecond)
	cfg.Procs = 2
	cfg.ContextSwitchTime = 5 * vtime.Microsecond
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 2*vtime.Millisecond {
		t.Fatalf("TotalTime = %v, want > thread 0's compute", res.TotalTime)
	}
	var cpuWait vtime.Time
	for _, s := range res.Threads {
		cpuWait += s.CPUWait
	}
	if cpuWait == 0 {
		t.Error("no CPU wait under multiplexing")
	}
}
