// Package metrics derives performance metrics (Section 2 of the paper)
// from performance information: execution times, speedup and efficiency
// series, time breakdowns, and communication statistics, computed from
// simulation results or extrapolated traces.
package metrics

import (
	"fmt"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Point is one (processor count, predicted time) sample of a scaling
// experiment.
type Point struct {
	Procs int
	Time  vtime.Time
}

// Speedup returns the speedup of each point relative to the 1-processor
// point (the paper's definition). If no 1-processor sample exists, the
// smallest processor count is the baseline, scaled accordingly.
func Speedup(points []Point) []float64 {
	if len(points) == 0 {
		return nil
	}
	base := points[0]
	for _, p := range points {
		if p.Procs < base.Procs {
			base = p
		}
	}
	out := make([]float64, len(points))
	for i, p := range points {
		if p.Time <= 0 {
			out[i] = 0
			continue
		}
		out[i] = float64(base.Time) / float64(p.Time) * float64(base.Procs)
	}
	return out
}

// Efficiency returns speedup divided by processor count for each point.
func Efficiency(points []Point) []float64 {
	sp := Speedup(points)
	out := make([]float64, len(points))
	for i, p := range points {
		if p.Procs > 0 {
			out[i] = sp[i] / float64(p.Procs)
		}
	}
	return out
}

// MinTimePoint returns the point with the lowest predicted time — the
// "number of processors delivering minimum execution time" the Figure 7
// discussion tracks.
func MinTimePoint(points []Point) Point {
	if len(points) == 0 {
		return Point{}
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Time < best.Time {
			best = p
		}
	}
	return best
}

// Breakdown is the share of total thread-time spent in each activity.
type Breakdown struct {
	Compute     float64
	CommWait    float64
	BarrierWait float64
	Service     float64
	CPUWait     float64
}

// ComputeBreakdown derives the activity shares from a simulation result.
func ComputeBreakdown(r *sim.Result) Breakdown {
	var total vtime.Time
	var b Breakdown
	for _, s := range r.Threads {
		total += s.Compute + s.CommWait + s.BarrierWait + s.Service + s.CPUWait
	}
	if total == 0 {
		return b
	}
	f := func(t vtime.Time) float64 { return float64(t) / float64(total) }
	b.Compute = f(r.TotalCompute())
	b.CommWait = f(r.TotalCommWait())
	b.BarrierWait = f(r.TotalBarrierWait())
	b.Service = f(r.TotalService())
	var cpu vtime.Time
	for _, s := range r.Threads {
		cpu += s.CPUWait
	}
	b.CPUWait = f(cpu)
	return b
}

// String renders the breakdown as percentages.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute %.1f%% comm %.1f%% barrier %.1f%% service %.1f%% cpu-wait %.1f%%",
		b.Compute*100, b.CommWait*100, b.BarrierWait*100, b.Service*100, b.CPUWait*100)
}

// TraceMetrics are metrics recomputed from an extrapolated event trace —
// the paper's final pipeline stage, and a cross-check on the simulator's
// own accounting.
type TraceMetrics struct {
	TotalTime   vtime.Time
	Barriers    int64
	Messages    int64
	MsgBytes    int64
	BarrierWait vtime.Time // sum over threads of (exit − entry)
}

// FromTrace derives metrics from an extrapolated trace.
func FromTrace(tr *trace.Trace) (TraceMetrics, error) {
	var m TraceMetrics
	type key struct {
		thread int32
		bar    int64
	}
	entries := make(map[key]vtime.Time)
	var exits int64
	for _, e := range tr.Events {
		if e.Time > m.TotalTime {
			m.TotalTime = e.Time
		}
		switch e.Kind {
		case trace.KindBarrierEntry:
			entries[key{e.Thread, e.Arg0}] = e.Time
		case trace.KindBarrierExit:
			at, ok := entries[key{e.Thread, e.Arg0}]
			if !ok {
				return m, fmt.Errorf("metrics: exit of barrier %d by thread %d without entry", e.Arg0, e.Thread)
			}
			m.BarrierWait += e.Time - at
			exits++
		case trace.KindMsgSend:
			m.Messages++
			m.MsgBytes += e.Arg1
		}
	}
	if tr.NumThreads > 0 {
		m.Barriers = exits / int64(tr.NumThreads)
	}
	return m, nil
}
