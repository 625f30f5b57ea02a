// Package profile analyzes extrapolated event traces for performance
// debugging — the activity the extrapolation exists to support (the paper:
// "performance extrapolation … can support both diagnosis and tuning in a
// performance debugging system"). It derives:
//
//   - a phase profile: predicted time per named program phase, per thread
//     and aggregated, from PhaseBegin/PhaseEnd annotations;
//   - a barrier profile: per-barrier arrival spread and wait cost, which
//     identifies load imbalance and the most expensive synchronization
//     points;
//   - a communication profile: message counts/bytes per thread pair.
//
// All inputs are ordinary traces (measurement or extrapolated), so the
// same analysis runs on predicted executions for machines that do not
// exist.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// PhaseStat aggregates one named phase.
type PhaseStat struct {
	Name string
	// Count is the number of (thread × occurrence) executions.
	Count int64
	// Total is the summed duration across threads and occurrences.
	Total vtime.Time
	// Max is the longest single execution.
	Max vtime.Time
	// PerThread sums durations by thread.
	PerThread map[int32]vtime.Time
}

// Mean returns the average phase duration.
func (p *PhaseStat) Mean() vtime.Time {
	if p.Count == 0 {
		return 0
	}
	return p.Total / vtime.Time(p.Count)
}

// Imbalance returns max(per-thread total) / mean(per-thread total) — 1.0
// means perfectly balanced.
func (p *PhaseStat) Imbalance() float64 {
	if len(p.PerThread) == 0 {
		return 1
	}
	var sum, max vtime.Time
	for _, v := range p.PerThread {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := float64(sum) / float64(len(p.PerThread))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// BarrierStat describes one global barrier.
type BarrierStat struct {
	ID int64
	// FirstEntry and LastEntry give the arrival window; their difference
	// is the load imbalance at this barrier.
	FirstEntry, LastEntry vtime.Time
	// Release is the latest exit timestamp.
	Release vtime.Time
	// TotalWait sums (exit − entry) across threads.
	TotalWait vtime.Time
}

// Spread is the arrival window: how long the fastest thread would have
// waited even with a free barrier.
func (b *BarrierStat) Spread() vtime.Time { return b.LastEntry - b.FirstEntry }

// SyncCost estimates pure synchronization overhead: release − last entry.
func (b *BarrierStat) SyncCost() vtime.Time { return b.Release - b.LastEntry }

// Profile is the full analysis of one trace.
type Profile struct {
	Threads  int
	Duration vtime.Time
	Phases   []PhaseStat
	Barriers []BarrierStat
	// CommMatrix[src][dst] counts messages between thread pairs
	// (extrapolated traces) or remote accesses (measurement traces).
	CommMatrix map[int32]map[int32]int64
	CommBytes  int64
}

// Analyze builds a Profile from a trace. Phase events may nest; each
// thread's phases form a stack.
func Analyze(tr *trace.Trace) (*Profile, error) {
	p := &Profile{
		Threads:    tr.NumThreads,
		Duration:   tr.Duration(),
		CommMatrix: make(map[int32]map[int32]int64),
	}
	type open struct {
		id    int64
		start vtime.Time
	}
	stacks := make(map[int32][]open)
	phases := make(map[int64]*PhaseStat)
	type barKey = int64
	bars := make(map[barKey]*BarrierStat)
	entries := make(map[int64]map[int32]vtime.Time) // barrier → thread → entry time

	for i, e := range tr.Events {
		switch e.Kind {
		case trace.KindPhaseBegin:
			stacks[e.Thread] = append(stacks[e.Thread], open{id: e.Arg0, start: e.Time})
		case trace.KindPhaseEnd:
			st := stacks[e.Thread]
			if len(st) == 0 || st[len(st)-1].id != e.Arg0 {
				return nil, fmt.Errorf("profile: event %d: phase-end %q without matching begin on thread %d",
					i, tr.PhaseName(e.Arg0), e.Thread)
			}
			o := st[len(st)-1]
			stacks[e.Thread] = st[:len(st)-1]
			ps := phases[o.id]
			if ps == nil {
				ps = &PhaseStat{Name: tr.PhaseName(o.id), PerThread: make(map[int32]vtime.Time)}
				phases[o.id] = ps
			}
			d := e.Time - o.start
			ps.Count++
			ps.Total += d
			if d > ps.Max {
				ps.Max = d
			}
			ps.PerThread[e.Thread] += d
		case trace.KindBarrierEntry:
			b := bars[e.Arg0]
			if b == nil {
				b = &BarrierStat{ID: e.Arg0, FirstEntry: e.Time}
				bars[e.Arg0] = b
				entries[e.Arg0] = make(map[int32]vtime.Time)
			}
			if e.Time < b.FirstEntry {
				b.FirstEntry = e.Time
			}
			if e.Time > b.LastEntry {
				b.LastEntry = e.Time
			}
			entries[e.Arg0][e.Thread] = e.Time
		case trace.KindBarrierExit:
			b := bars[e.Arg0]
			if b == nil {
				return nil, fmt.Errorf("profile: event %d: exit of unseen barrier %d", i, e.Arg0)
			}
			if e.Time > b.Release {
				b.Release = e.Time
			}
			if at, ok := entries[e.Arg0][e.Thread]; ok {
				b.TotalWait += e.Time - at
			}
		case trace.KindMsgSend:
			row := p.CommMatrix[e.Thread]
			if row == nil {
				row = make(map[int32]int64)
				p.CommMatrix[e.Thread] = row
			}
			row[int32(e.Arg0)]++
			p.CommBytes += e.Arg1
		case trace.KindRemoteRead, trace.KindRemoteWrite:
			// Measurement traces have no message events; count accesses.
			if _, hasMsgs := p.CommMatrix[-1]; !hasMsgs {
				row := p.CommMatrix[e.Thread]
				if row == nil {
					row = make(map[int32]int64)
					p.CommMatrix[e.Thread] = row
				}
				row[int32(e.Arg0)]++
				p.CommBytes += e.Arg1
			}
		}
	}
	for th, st := range stacks {
		if len(st) != 0 {
			return nil, fmt.Errorf("profile: thread %d ends with %d unclosed phases", th, len(st))
		}
	}

	for _, ps := range phases {
		p.Phases = append(p.Phases, *ps)
	}
	sort.Slice(p.Phases, func(i, j int) bool { return p.Phases[i].Total > p.Phases[j].Total })
	for _, b := range bars {
		p.Barriers = append(p.Barriers, *b)
	}
	sort.Slice(p.Barriers, func(i, j int) bool { return p.Barriers[i].ID < p.Barriers[j].ID })
	return p, nil
}

// TopBarriers returns the k barriers with the largest total wait,
// costliest first.
func (p *Profile) TopBarriers(k int) []BarrierStat {
	out := append([]BarrierStat(nil), p.Barriers...)
	sort.Slice(out, func(i, j int) bool { return out[i].TotalWait > out[j].TotalWait })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TotalBarrierWait sums wait over all barriers.
func (p *Profile) TotalBarrierWait() vtime.Time {
	var t vtime.Time
	for _, b := range p.Barriers {
		t += b.TotalWait
	}
	return t
}

// HottestPair returns the thread pair exchanging the most messages, the
// lowest (src, dst) among equals, so a report does not depend on map
// iteration order.
func (p *Profile) HottestPair() (src, dst int32, count int64) {
	for s, row := range p.CommMatrix {
		for d, c := range row {
			if c > count || c == count && (s < src || s == src && d < dst) {
				src, dst, count = s, d, c
			}
		}
	}
	return src, dst, count
}

// Render writes a human-readable report.
func (p *Profile) Render(w *strings.Builder) {
	fmt.Fprintf(w, "threads=%d duration=%v barriers=%d barrier-wait=%v comm-bytes=%d\n",
		p.Threads, p.Duration, len(p.Barriers), p.TotalBarrierWait(), p.CommBytes)
	if len(p.Phases) > 0 {
		fmt.Fprintf(w, "\nphases (by total time):\n")
		for _, ph := range p.Phases {
			fmt.Fprintf(w, "  %-20s total=%-12v mean=%-12v max=%-12v imbalance=%.2f\n",
				ph.Name, ph.Total, ph.Mean(), ph.Max, ph.Imbalance())
		}
	}
	if top := p.TopBarriers(5); len(top) > 0 {
		fmt.Fprintf(w, "\ncostliest barriers:\n")
		for _, b := range top {
			fmt.Fprintf(w, "  barrier %-5d wait=%-12v spread=%-12v sync=%v\n",
				b.ID, b.TotalWait, b.Spread(), b.SyncCost())
		}
	}
	if s, d, c := p.HottestPair(); c > 0 {
		fmt.Fprintf(w, "\nhottest communication pair: t%d → t%d (%d messages)\n", s, d, c)
	}
}
