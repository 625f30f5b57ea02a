package pcxx

import (
	"errors"
	"testing"

	"extrap/internal/pcxx/dist"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

func TestBarrierTraceStructure(t *testing.T) {
	rt := NewRuntime(DefaultConfig(4))
	tr, err := rt.Run(func(th *Thread) {
		th.Compute(vtime.Time(100 * (th.ID() + 1)))
		th.Barrier()
		th.Compute(50)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if s.Barriers != 2 {
		t.Fatalf("Barriers = %d, want 2", s.Barriers)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBarrierExitAfterLastEntry(t *testing.T) {
	// On the 1-processor host, no thread exits a barrier before the last
	// thread has entered it.
	rt := NewRuntime(DefaultConfig(3))
	tr, err := rt.Run(func(th *Thread) {
		th.Compute(vtime.Time(1000 * (th.ID() + 1)))
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastEntry, firstExit vtime.Time = 0, vtime.Forever
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindBarrierEntry:
			if e.Time > lastEntry {
				lastEntry = e.Time
			}
		case trace.KindBarrierExit:
			if e.Time < firstExit {
				firstExit = e.Time
			}
		}
	}
	if firstExit < lastEntry {
		t.Fatalf("barrier exit at %v before last entry at %v", firstExit, lastEntry)
	}
}

func TestVirtualTimeSerializesThreads(t *testing.T) {
	// n threads each computing d on one processor take n·d of virtual
	// time to the first barrier.
	const n = 4
	d := 100 * vtime.Microsecond
	rt := NewRuntime(DefaultConfig(n))
	tr, err := rt.Run(func(th *Thread) {
		th.Compute(d)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastEntry vtime.Time
	for _, e := range tr.Events {
		if e.Kind == trace.KindBarrierEntry {
			lastEntry = e.Time
		}
	}
	if lastEntry != vtime.Time(n)*d {
		t.Fatalf("last barrier entry at %v, want %v", lastEntry, vtime.Time(n)*d)
	}
}

func TestCostModelCharging(t *testing.T) {
	cfg := DefaultConfig(1)
	rt := NewRuntime(cfg)
	_, err := rt.Run(func(th *Thread) {
		start := th.rt.clock.Now()
		th.Flops(10)
		if th.rt.clock.Now()-start != 10*cfg.Cost.FlopTime {
			t.Errorf("Flops(10) advanced %v", th.rt.clock.Now()-start)
		}
		start = th.rt.clock.Now()
		th.Ops(7)
		if th.rt.clock.Now()-start != 7*cfg.Cost.IntOpTime {
			t.Errorf("Ops(7) advanced %v", th.rt.clock.Now()-start)
		}
		start = th.rt.clock.Now()
		th.Mem(64)
		if th.rt.clock.Now()-start != 64*cfg.Cost.MemByteTime {
			t.Errorf("Mem(64) advanced %v", th.rt.clock.Now()-start)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSun4MFLOPS(t *testing.T) {
	// The Sun 4 model must reproduce the paper's 1.1360 MFLOPS within
	// rounding of the per-flop cost.
	mflops := func(c CostModel) float64 { return 1e3 / float64(c.FlopTime) } // (1e9 ns/s) / (ns/flop) / 1e6
	got := mflops(Sun4())
	if got < 1.10 || got > 1.17 {
		t.Errorf("Sun4 MFLOPS = %.4f, want ≈1.136", got)
	}
	cm5 := mflops(CM5Node())
	if cm5 < 2.7 || cm5 > 2.85 {
		t.Errorf("CM5 MFLOPS = %.4f, want ≈2.7645", cm5)
	}
	// Their ratio is the paper's MipsRatio 0.41.
	ratio := got / cm5
	if ratio < 0.40 || ratio > 0.42 {
		t.Errorf("MipsRatio = %.3f, want ≈0.41", ratio)
	}
}

func TestRemoteReadEvents(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	c := NewCollection[float64](rt, "x", dist.NewBlock(2, 2), 8)
	tr, err := rt.Run(func(th *Thread) {
		*c.Local(th, th.ID()) = float64(th.ID() + 1)
		th.Barrier()
		v := c.Read(th, (th.ID()+1)%2)
		want := float64((th.ID()+1)%2 + 1)
		if v != want {
			t.Errorf("thread %d read %v, want %v", th.ID(), v, want)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if s.RemoteReads != 2 {
		t.Fatalf("RemoteReads = %d, want 2", s.RemoteReads)
	}
	if s.RemoteBytes != 16 {
		t.Fatalf("RemoteBytes = %d, want 16", s.RemoteBytes)
	}
}

func TestLocalReadRecordsNothing(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	c := NewCollection[int](rt, "x", dist.NewBlock(4, 2), 8)
	tr, err := rt.Run(func(th *Thread) {
		c.ForOwned(th, func(i int) {
			_ = c.Read(th, i) // local
		})
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := trace.ComputeStats(tr); s.RemoteReads != 0 {
		t.Fatalf("local reads recorded %d remote events", s.RemoteReads)
	}
}

func TestSizeModeAttribution(t *testing.T) {
	run := func(mode SizeMode) int64 {
		cfg := DefaultConfig(2)
		cfg.SizeMode = mode
		rt := NewRuntime(cfg)
		c := NewCollection[[64]byte](rt, "big", dist.NewBlock(2, 2), 4096)
		tr, err := rt.Run(func(th *Thread) {
			th.Barrier()
			if th.ID() == 1 {
				c.ReadPart(th, 0, 128) // only 128 bytes actually needed
			}
			th.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace.ComputeStats(tr).RemoteBytes
	}
	if got := run(CompilerEstimate); got != 4096 {
		t.Errorf("CompilerEstimate recorded %d bytes, want 4096 (whole element)", got)
	}
	if got := run(ActualSize); got != 128 {
		t.Errorf("ActualSize recorded %d bytes, want 128", got)
	}
}

func TestReadPartBoundsPanic(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	c := NewCollection[int](rt, "x", dist.NewBlock(2, 2), 8)
	_, err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("oversized ReadPart did not panic")
				}
			}()
			c.ReadPart(th, 1, 999)
		}
		th.Barrier()
	})
	_ = err // the recovered panic keeps the program well-formed
}

func TestLocalWrongOwnerPanics(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	c := NewCollection[int](rt, "x", dist.NewBlock(2, 2), 8)
	_, err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("Local of non-owned element did not panic")
				}
			}()
			c.Local(th, 1)
		}
		th.Barrier()
	})
	_ = err
}

func TestRemoteWriteEvents(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	c := NewCollection[int](rt, "x", dist.NewBlock(2, 2), 8)
	tr, err := rt.Run(func(th *Thread) {
		th.Barrier()
		if th.ID() == 0 {
			c.Write(th, 1, 42) // remote write extension
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if s.RemoteWrites != 1 {
		t.Fatalf("RemoteWrites = %d, want 1", s.RemoteWrites)
	}
}

func TestEventOverheadCharged(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.EventOverhead = 5 * vtime.Microsecond
	rt := NewRuntime(cfg)
	tr, err := rt.Run(func(th *Thread) {
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.EventOverhead != cfg.EventOverhead {
		t.Fatalf("trace EventOverhead = %v", tr.EventOverhead)
	}
	// Each recorded event advanced the clock: trace duration is positive
	// even though no Compute was charged.
	if tr.Duration() == 0 {
		t.Fatal("instrumentation overhead did not advance the clock")
	}
}

func TestTraceDeterminism(t *testing.T) {
	run := func() *trace.Trace {
		rt := NewRuntime(DefaultConfig(4))
		c := PerThread[float64](rt, "p", 8)
		tr, err := rt.Run(func(th *Thread) {
			*c.Local(th, th.ID()) = float64(th.ID())
			th.Flops(100 * (th.ID() + 1))
			sum := AllReduceSum(th, c)
			if sum != 6 {
				t.Errorf("sum = %v, want 6", sum)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("traces diverge at event %d: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestPhaseEvents(t *testing.T) {
	rt := NewRuntime(DefaultConfig(1))
	tr, err := rt.Run(func(th *Thread) {
		th.Phase("solve", func() { th.Flops(5) })
	})
	if err != nil {
		t.Fatal(err)
	}
	var begin, end int
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindPhaseBegin:
			begin++
			if tr.PhaseName(e.Arg0) != "solve" {
				t.Errorf("phase name = %q", tr.PhaseName(e.Arg0))
			}
		case trace.KindPhaseEnd:
			end++
		}
	}
	if begin != 1 || end != 1 {
		t.Fatalf("phase events begin=%d end=%d", begin, end)
	}
}

func TestReduceSumCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		rt := NewRuntime(DefaultConfig(n))
		c := PerThread[float64](rt, "p", 8)
		want := 0.0
		for i := 0; i < n; i++ {
			want += float64(i + 1)
		}
		_, err := rt.Run(func(th *Thread) {
			*c.Local(th, th.ID()) = float64(th.ID() + 1)
			got := AllReduceSum(th, c)
			if got != want {
				t.Errorf("n=%d thread %d: AllReduceSum = %v, want %v", n, th.ID(), got, want)
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestCollection2DOwnershipAndAccess(t *testing.T) {
	rt := NewRuntime(DefaultConfig(4))
	d2 := dist.NewDist2D(4, 4, 4, dist.Block, dist.Block)
	g := NewCollection2D[float64](rt, "grid", d2, 32)
	tr, err := rt.Run(func(th *Thread) {
		g.ForOwned(th, func(r, c int) {
			*g.Local(th, r, c) = float64(r*4 + c)
		})
		th.Barrier()
		// Every thread reads element (0,0), owned by thread 0.
		v := g.Read(th, 0, 0)
		if v != 0 {
			t.Errorf("thread %d read (0,0) = %v", th.ID(), v)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if s.RemoteReads != 3 { // threads 1..3
		t.Errorf("RemoteReads = %d, want 3", s.RemoteReads)
	}
}

func TestMalformedProgramReported(t *testing.T) {
	// A program where only some threads hit a barrier deadlocks; the
	// runtime must report it rather than hang (scheduler deadlock
	// detection) .
	rt := NewRuntime(DefaultConfig(2))
	_, err := rt.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Barrier()
		}
	})
	if err == nil {
		t.Fatal("divergent barrier structure not reported")
	}
}

func TestReduceWithMax(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		rt := NewRuntime(DefaultConfig(n))
		c := PerThread[float64](rt, "p", 8)
		_, err := rt.Run(func(th *Thread) {
			*c.Local(th, th.ID()) = float64((th.ID()*13 + 5) % 7)
			got := AllReduceWith(th, c, func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			})
			want := 0.0
			for i := 0; i < n; i++ {
				if v := float64((i*13 + 5) % 7); v > want {
					want = v
				}
			}
			if got != want {
				t.Errorf("n=%d: max = %v, want %v", n, got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCalibrateHostSane(t *testing.T) {
	cm := CalibrateHost()
	if cm.FlopTime < 1 || cm.FlopTime > vtime.Millisecond {
		t.Fatalf("calibrated FlopTime %v outside sane bounds", cm.FlopTime)
	}
	if cm.IntOpTime <= 0 || cm.MemByteTime <= 0 || cm.CallTime <= 0 {
		t.Fatalf("calibrated model has non-positive members: %+v", cm)
	}
}

func TestCollectionAccessors(t *testing.T) {
	rt := NewRuntime(DefaultConfig(2))
	d := dist.NewBlock(6, 2)
	c := NewCollection[float64](rt, "vals", d, 16)
	if c.Owner(0) != 0 || c.Owner(5) != 1 {
		t.Error("Owner wrong")
	}
	_, err := rt.Run(func(th *Thread) {
		if th.ID() == 0 && c.LocalCount(th) != 3 {
			t.Errorf("LocalCount = %d", c.LocalCount(th))
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if SizeMode(0).String() != "compiler-estimate" || SizeMode(1).String() != "actual-size" {
		t.Error("SizeMode names wrong")
	}
}

func TestComputeNegativePanics(t *testing.T) {
	rt := NewRuntime(DefaultConfig(1))
	_, err := rt.Run(func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("negative Compute did not panic")
			}
		}()
		th.Compute(-1)
	})
	_ = err
}

// TestInterruptAbortsRun: a non-nil Interrupt result must abort the
// measurement with an error satisfying errors.Is against the cause —
// the mechanism callers use to bound wall-clock time of a run.
func TestInterruptAbortsRun(t *testing.T) {
	sentinel := errors.New("deadline hit")
	var polls int
	cfg := DefaultConfig(2)
	cfg.Interrupt = func() error {
		polls++
		if polls >= 3 {
			return sentinel
		}
		return nil
	}
	rt := NewRuntime(cfg)
	_, err := rt.Run(func(th *Thread) {
		// Far more compute charges than 3×InterruptEvery: without the
		// interrupt this loop completes quickly, with it the run must
		// stop partway through.
		for i := 0; i < 4*InterruptEvery; i++ {
			th.Compute(1)
		}
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("Run() = %v, want errors.Is(err, sentinel)", err)
	}
	if polls != 3 {
		t.Errorf("Interrupt polled %d times, want exactly 3 (abort on first failure)", polls)
	}
}

// TestInterruptDoesNotPerturbTrace: a run that completes under an
// Interrupt that never fires must be byte-identical to one without it.
func TestInterruptDoesNotPerturbTrace(t *testing.T) {
	run := func(interrupt func() error) *trace.Trace {
		cfg := DefaultConfig(3)
		cfg.Interrupt = interrupt
		rt := NewRuntime(cfg)
		tr, err := rt.Run(func(th *Thread) {
			th.Compute(vtime.Time(100 * (th.ID() + 1)))
			th.Barrier()
			th.Compute(50)
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain := run(nil)
	polled := run(func() error { return nil })
	if len(plain.Events) != len(polled.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(plain.Events), len(polled.Events))
	}
	for i := range plain.Events {
		if plain.Events[i] != polled.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, plain.Events[i], polled.Events[i])
		}
	}
}
