package timeline

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// extrapolatedGrid produces an extrapolated trace of the Grid benchmark.
func extrapolatedGrid(t *testing.T, threads int) (*trace.Trace, vtime.Time) {
	t.Helper()
	g, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(g.Factory(benchmarks.Size{N: 16, Iters: 6})(threads), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.GenericDM().Config
	cfg.EmitTrace = true
	out, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out.Result.Trace, out.Result.TotalTime
}

func TestBuildClassifiesActivity(t *testing.T) {
	etr, total := extrapolatedGrid(t, 4)
	tl, err := Build(etr)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Threads != 4 {
		t.Fatalf("threads = %d", tl.Threads)
	}
	if tl.Duration != total {
		t.Fatalf("duration %v != simulated total %v", tl.Duration, total)
	}
	totals := tl.Totals()
	if totals[Compute] <= 0 || totals[Barrier] <= 0 || totals[Comm] <= 0 {
		t.Fatalf("expected all three activity kinds, got %v", totals)
	}
	// Segments are non-overlapping and ordered per thread.
	lastEnd := map[int32]vtime.Time{}
	for _, s := range tl.Segments {
		if s.End < s.Start {
			t.Fatalf("segment with negative length: %+v", s)
		}
		if s.Start < lastEnd[s.Thread] {
			t.Fatalf("overlapping segments on thread %d: %+v after %v", s.Thread, s, lastEnd[s.Thread])
		}
		lastEnd[s.Thread] = s.End
	}
	// Every thread's coverage ends at ≤ the run duration.
	for th, end := range lastEnd {
		if end > tl.Duration {
			t.Fatalf("thread %d segments extend past the end: %v > %v", th, end, tl.Duration)
		}
	}
}

func TestSVGOutput(t *testing.T) {
	etr, _ := extrapolatedGrid(t, 4)
	tl, err := Build(etr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.SVG(&buf, "grid on generic-dm"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "barrier", "comm", "compute", "t0", "t3"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<rect") < 10 {
		t.Error("suspiciously few segments rendered")
	}
}

func TestBuildRejectsMalformed(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 5, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 0})
	if _, err := Build(tr); err == nil {
		t.Error("orphan barrier exit accepted")
	}
}

func TestEmptyTimelineSVG(t *testing.T) {
	tl := &Timeline{Threads: 2, Duration: 0}
	var buf bytes.Buffer
	if err := tl.SVG(&buf, "empty"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("no SVG emitted for empty timeline")
	}
}
