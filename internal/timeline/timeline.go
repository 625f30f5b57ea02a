// Package timeline renders per-thread activity timelines (Gantt charts)
// from extrapolated event traces — the visualization a performance
// debugger of the paper's era (Upshot, ParaGraph, Pablo) would show, here
// generated for *predicted* executions of machines the user may not have.
//
// Each thread becomes one horizontal lane; time runs left to right.
// Activity is classified from the event stream:
//
//	compute      between any two events not otherwise classified
//	barrier      from a barrier-entry to the matching barrier-exit
//	comm         from a remote-read request send to the read's completion
//
// The renderer emits self-contained SVG (stdlib only).
package timeline

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Kind classifies a timeline segment.
type Kind uint8

// Segment kinds.
const (
	Compute Kind = iota
	Barrier
	Comm
)

func (k Kind) String() string {
	switch k {
	case Barrier:
		return "barrier"
	case Comm:
		return "comm"
	}
	return "compute"
}

// color returns the fill color of a segment kind.
func (k Kind) color() string {
	switch k {
	case Barrier:
		return "#d62728" // red: synchronization
	case Comm:
		return "#ff7f0e" // orange: communication
	}
	return "#2ca02c" // green: computation
}

// Segment is one activity interval on one thread.
type Segment struct {
	Thread     int32
	Kind       Kind
	Start, End vtime.Time
}

// Timeline is the classified activity of a whole trace.
type Timeline struct {
	Threads  int
	Duration vtime.Time
	Segments []Segment
}

// Build classifies a trace into segments. The trace should be an
// extrapolated trace (or a flattened translated trace); per-thread events
// must be time-ordered.
func Build(tr *trace.Trace) (*Timeline, error) {
	tl := &Timeline{Threads: tr.NumThreads, Duration: tr.Duration()}
	per := tr.PerThread()
	for th, evs := range per {
		var segs []Segment
		cursor := vtime.Time(0) // start of the current unclassified span
		pendingComm := vtime.Time(-1)
		barrierStart := vtime.Time(-1)
		closeAs := func(end vtime.Time, k Kind, from vtime.Time) {
			if from < cursor {
				from = cursor
			}
			if from > cursor {
				segs = append(segs, Segment{Thread: int32(th), Kind: Compute, Start: cursor, End: from})
			}
			if end > from {
				segs = append(segs, Segment{Thread: int32(th), Kind: k, Start: from, End: end})
			}
			cursor = end
		}
		for _, e := range evs {
			switch e.Kind {
			case trace.KindBarrierEntry:
				barrierStart = e.Time
			case trace.KindBarrierExit:
				if barrierStart < 0 {
					return nil, fmt.Errorf("timeline: thread %d exits barrier %d without entry", th, e.Arg0)
				}
				closeAs(e.Time, Barrier, barrierStart)
				barrierStart = -1
			case trace.KindMsgSend:
				// Request sends mark possible comm-wait starts; only
				// remote-read requests block (writes are fire-and-forget,
				// barrier messages are inside barrier intervals).
				if pendingComm < 0 && barrierStart < 0 {
					pendingComm = e.Time
				}
			case trace.KindRemoteRead:
				if pendingComm >= 0 {
					closeAs(e.Time, Comm, pendingComm)
					pendingComm = -1
				}
			case trace.KindThreadEnd:
				if e.Time > cursor {
					segs = append(segs, Segment{Thread: int32(th), Kind: Compute, Start: cursor, End: e.Time})
					cursor = e.Time
				}
			}
		}
		tl.Segments = append(tl.Segments, segs...)
	}
	sort.SliceStable(tl.Segments, func(i, j int) bool {
		if tl.Segments[i].Thread != tl.Segments[j].Thread {
			return tl.Segments[i].Thread < tl.Segments[j].Thread
		}
		return tl.Segments[i].Start < tl.Segments[j].Start
	})
	return tl, nil
}

// Totals sums segment durations by kind.
func (tl *Timeline) Totals() map[Kind]vtime.Time {
	out := make(map[Kind]vtime.Time)
	for _, s := range tl.Segments {
		out[s.Kind] += s.End - s.Start
	}
	return out
}

// SVG renders the timeline.
func (tl *Timeline) SVG(w io.Writer, title string) error {
	const (
		width   = 900
		laneH   = 22
		laneGap = 6
		ml, mr  = 60, 20
		mt, mb  = 50, 40
	)
	height := mt + mb + tl.Threads*(laneH+laneGap)
	pw := width - ml - mr
	if tl.Duration <= 0 {
		tl.Duration = 1
	}
	x := func(t vtime.Time) float64 {
		return float64(ml) + float64(float64(t)/float64(tl.Duration)*float64(pw))
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		ml, escapeXML(title))
	// Legend.
	for i, k := range []Kind{Compute, Comm, Barrier} {
		lx := ml + i*110
		fmt.Fprintf(&b, `<rect x="%d" y="30" width="12" height="12" fill="%s"/>`+"\n", lx, k.color())
		fmt.Fprintf(&b, `<text x="%d" y="40" font-family="sans-serif" font-size="11">%s</text>`+"\n", lx+16, k)
	}
	for th := 0; th < tl.Threads; th++ {
		y := mt + th*(laneH+laneGap)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="end">t%d</text>`+"\n",
			ml-6, y+laneH-7, th)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f4f4f4"/>`+"\n", ml, y, pw, laneH)
	}
	for _, s := range tl.Segments {
		y := mt + int(s.Thread)*(laneH+laneGap)
		x0, x1 := x(s.Start), x(s.End)
		if x1-x0 < 0.5 {
			x1 = x0 + 0.5
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"><title>%s %v–%v</title></rect>`+"\n",
			x0, y, x1-x0, laneH, s.Kind.color(), s.Kind, s.Start, s.End)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">0</text>`+"\n", ml, height-14)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="end">%v</text>`+"\n",
		ml+pw, height-14, tl.Duration)
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeXML escapes XML special characters.
func escapeXML(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;",
		`"`, "&quot;", "'", "&apos;").Replace(s)
}
