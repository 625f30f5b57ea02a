package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

func TestSpeedupBasics(t *testing.T) {
	points := []Point{
		{Procs: 1, Time: 1000},
		{Procs: 2, Time: 500},
		{Procs: 4, Time: 400},
	}
	sp := Speedup(points)
	want := []float64{1, 2, 2.5}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-9 {
			t.Errorf("Speedup[%d] = %g, want %g", i, sp[i], want[i])
		}
	}
	eff := Efficiency(points)
	wantEff := []float64{1, 1, 0.625}
	for i := range wantEff {
		if math.Abs(eff[i]-wantEff[i]) > 1e-9 {
			t.Errorf("Efficiency[%d] = %g, want %g", i, eff[i], wantEff[i])
		}
	}
}

func TestSpeedupBaselineNotFirst(t *testing.T) {
	// The baseline is the smallest processor count regardless of order.
	points := []Point{
		{Procs: 4, Time: 300},
		{Procs: 2, Time: 600},
	}
	sp := Speedup(points)
	if math.Abs(sp[0]-4) > 1e-9 { // 600/300·2
		t.Errorf("Speedup[0] = %g, want 4", sp[0])
	}
}

func TestSpeedupEdgeCases(t *testing.T) {
	if Speedup(nil) != nil {
		t.Error("nil points should give nil")
	}
	sp := Speedup([]Point{{Procs: 1, Time: 0}})
	if sp[0] != 0 {
		t.Error("zero time should give zero speedup, not a division panic")
	}
}

func TestMinTimePoint(t *testing.T) {
	points := []Point{
		{Procs: 1, Time: 1000},
		{Procs: 4, Time: 300},
		{Procs: 16, Time: 450},
	}
	if best := MinTimePoint(points); best.Procs != 4 {
		t.Errorf("MinTimePoint = %+v, want procs 4", best)
	}
	if MinTimePoint(nil) != (Point{}) {
		t.Error("empty input should give zero point")
	}
}

func TestSpeedupMonotoneProperty(t *testing.T) {
	// Lower time at higher procs ⇒ higher speedup.
	f := func(a, b uint16) bool {
		ta := vtime.Time(a) + 1
		tb := vtime.Time(b) + 1
		points := []Point{{Procs: 1, Time: 1000 * vtime.Microsecond},
			{Procs: 2, Time: ta}, {Procs: 4, Time: tb}}
		sp := Speedup(points)
		if ta <= tb {
			return sp[1] >= sp[2]*float64(ta)/float64(tb)*0 // always true; real check below
		}
		return true
	}
	_ = f
	// Direct check: speedup is inversely proportional to time.
	points := []Point{{Procs: 1, Time: 1200}, {Procs: 2, Time: 600}, {Procs: 4, Time: 300}}
	sp := Speedup(points)
	if !(sp[0] < sp[1] && sp[1] < sp[2]) {
		t.Errorf("speedup not increasing: %v", sp)
	}
	if err := quick.Check(func(x uint16) bool {
		tm := vtime.Time(x) + 1
		p := []Point{{Procs: 1, Time: 1 << 20}, {Procs: 2, Time: tm}}
		s := Speedup(p)
		return math.Abs(s[1]-float64(1<<20)/float64(tm)) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeBreakdown(t *testing.T) {
	r := &sim.Result{
		Threads: []sim.ThreadStats{
			{Compute: 600, CommWait: 200, BarrierWait: 100, Service: 50, CPUWait: 50},
			{Compute: 400, CommWait: 300, BarrierWait: 200, Service: 50, CPUWait: 50},
		},
	}
	b := ComputeBreakdown(r)
	if math.Abs(b.Compute-0.5) > 1e-9 {
		t.Errorf("Compute share = %g, want 0.5", b.Compute)
	}
	if math.Abs(b.CommWait-0.25) > 1e-9 {
		t.Errorf("CommWait share = %g, want 0.25", b.CommWait)
	}
	total := b.Compute + b.CommWait + b.BarrierWait + b.Service + b.CPUWait
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	if !strings.Contains(b.String(), "compute 50.0%") {
		t.Errorf("String() = %q", b.String())
	}
	// Empty result: no panic, zero shares.
	if z := ComputeBreakdown(&sim.Result{}); z.Compute != 0 {
		t.Error("empty result should break down to zeros")
	}
}

func TestFromTrace(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 0, Kind: trace.KindBarrierEntry, Thread: 0, Arg0: 0})
	tr.Append(trace.Event{Time: 10, Kind: trace.KindBarrierEntry, Thread: 1, Arg0: 0})
	tr.Append(trace.Event{Time: 15, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 0})
	tr.Append(trace.Event{Time: 15, Kind: trace.KindBarrierExit, Thread: 1, Arg0: 0})
	tr.Append(trace.Event{Time: 20, Kind: trace.KindMsgSend, Thread: 0, Arg0: 1, Arg1: 128})
	m, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalTime != 20 {
		t.Errorf("TotalTime = %v", m.TotalTime)
	}
	if m.Barriers != 1 {
		t.Errorf("Barriers = %d", m.Barriers)
	}
	if m.Messages != 1 || m.MsgBytes != 128 {
		t.Errorf("Messages = %d bytes = %d", m.Messages, m.MsgBytes)
	}
	// (15−0) + (15−10) = 20 of barrier wait.
	if m.BarrierWait != 20 {
		t.Errorf("BarrierWait = %v, want 20", m.BarrierWait)
	}
}

func TestFromTraceRejectsOrphanExit(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 5, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 0})
	if _, err := FromTrace(tr); err == nil {
		t.Error("orphan barrier exit accepted")
	}
}
