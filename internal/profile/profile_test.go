package profile

import (
	"context"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

func TestPhaseProfile(t *testing.T) {
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(2))
	tr, err := rt.Run(func(th *pcxx.Thread) {
		th.Phase("work", func() {
			th.Compute(vtime.Time(th.ID()+1) * 100 * vtime.Microsecond)
		})
		th.Phase("idle", func() {
			th.Compute(10 * vtime.Microsecond)
		})
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 2 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	// Sorted by total time: "work" (300µs) before "idle" (20µs).
	if p.Phases[0].Name != "work" {
		t.Fatalf("hottest phase = %q", p.Phases[0].Name)
	}
	work := p.Phases[0]
	if work.Count != 2 {
		t.Errorf("work count = %d", work.Count)
	}
	if work.Total != 300*vtime.Microsecond {
		t.Errorf("work total = %v", work.Total)
	}
	if work.Max != 200*vtime.Microsecond {
		t.Errorf("work max = %v", work.Max)
	}
	// Thread 1 did 200µs of 150µs mean → imbalance 200/150.
	if got := work.Imbalance(); got < 1.32 || got > 1.34 {
		t.Errorf("work imbalance = %.3f, want ≈1.333", got)
	}
}

func TestNestedPhases(t *testing.T) {
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(1))
	tr, err := rt.Run(func(th *pcxx.Thread) {
		th.Phase("outer", func() {
			th.Compute(10 * vtime.Microsecond)
			th.Phase("inner", func() {
				th.Compute(5 * vtime.Microsecond)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PhaseStat{}
	for _, ph := range p.Phases {
		byName[ph.Name] = ph
	}
	if byName["outer"].Total != 15*vtime.Microsecond {
		t.Errorf("outer total = %v", byName["outer"].Total)
	}
	if byName["inner"].Total != 5*vtime.Microsecond {
		t.Errorf("inner total = %v", byName["inner"].Total)
	}
}

func TestMalformedPhases(t *testing.T) {
	tr := trace.New(1)
	id := tr.PhaseID("p")
	tr.Append(trace.Event{Time: 0, Kind: trace.KindPhaseEnd, Thread: 0, Arg0: id})
	if _, err := Analyze(tr); err == nil {
		t.Error("orphan phase-end accepted")
	}
	tr2 := trace.New(1)
	tr2.Append(trace.Event{Time: 0, Kind: trace.KindPhaseBegin, Thread: 0, Arg0: tr2.PhaseID("p")})
	if _, err := Analyze(tr2); err == nil {
		t.Error("unclosed phase accepted")
	}
	tr3 := trace.New(1)
	tr3.Append(trace.Event{Time: 0, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 7})
	if _, err := Analyze(tr3); err == nil {
		t.Error("exit of unseen barrier accepted")
	}
}

func TestBarrierProfile(t *testing.T) {
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(3))
	tr, err := rt.Run(func(th *pcxx.Thread) {
		th.Compute(vtime.Time(th.ID()) * 50 * vtime.Microsecond)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Barriers) != 1 {
		t.Fatalf("barriers = %d", len(p.Barriers))
	}
	b := p.Barriers[0]
	// On the serial measurement host: entries at 0, 50, 150 (serialized).
	if b.FirstEntry != 0 {
		t.Errorf("first entry = %v", b.FirstEntry)
	}
	if b.Spread() <= 0 {
		t.Errorf("spread = %v", b.Spread())
	}
	if b.TotalWait <= 0 {
		t.Errorf("total wait = %v", b.TotalWait)
	}
}

func TestProfileOnExtrapolatedTrace(t *testing.T) {
	// The intended use: profile a *predicted* execution.
	g, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(g.Factory(benchmarks.Size{N: 16, Iters: 10})(4), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.GenericDM().Config
	cfg.EmitTrace = true
	out, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(out.Result.Trace)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ph := range p.Phases {
		names[ph.Name] = true
	}
	if !names["exchange"] || !names["update"] {
		t.Fatalf("expected grid phases, got %v", names)
	}
	if len(p.Barriers) == 0 {
		t.Fatal("no barriers in extrapolated profile")
	}
	if _, _, c := p.HottestPair(); c == 0 {
		t.Error("no communication pairs found")
	}
	var sb strings.Builder
	p.Render(&sb)
	if !strings.Contains(sb.String(), "phases (by total time):") {
		t.Errorf("render missing phases section:\n%s", sb.String())
	}
}

func TestTopBarriers(t *testing.T) {
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(2))
	tr, err := rt.Run(func(th *pcxx.Thread) {
		// Barrier 0: balanced; barrier 1: imbalanced (more wait).
		th.Compute(10 * vtime.Microsecond)
		th.Barrier()
		th.Compute(vtime.Time(th.ID()) * 500 * vtime.Microsecond)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Raw measurement traces record barrier exits at scheduler-resume
	// time; translation restores release semantics, which is what the
	// profiler should see.
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Analyze(pt.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	top := p.TopBarriers(1)
	if len(top) != 1 || top[0].ID != 1 {
		t.Fatalf("TopBarriers = %+v, want barrier 1 first", top)
	}
}
