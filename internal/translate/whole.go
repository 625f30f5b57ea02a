package translate

import (
	"fmt"
	"io"
	"sync"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Whole is a compiled trace translated whole, for replaying one
// translation under several machine configs: its ParallelTrace's thread
// slices are carved from one event slab holding exactly the trace's
// declared events, and sim.Simulate reads it read-only. Wholes are
// reused through a two-slot free list, so the slabs a process keeps
// resident stay bounded; Release hands one back.
type Whole struct {
	ParallelTrace
	source, ideal vtime.Time
	slab          []trace.Event
	counts        []int
	x             translator
}

// SourceDuration reports the 1-processor virtual execution time: the
// timestamp of the last source event.
func (w *Whole) SourceDuration() vtime.Time { return w.source }

// Duration reports the idealized parallel execution time: the latest
// translated timestamp.
func (w *Whole) Duration() vtime.Time { return w.ideal }

// TranslateWhole translates compiled trace ct as Translate translates a
// Trace, and rejects what a Stream over ct rejects, though where a trace
// holds several faults it may name another one first (the counting pass
// meets an out-of-range thread before the translator meets an earlier
// fault). A counting pass over the thread deltas sizes every thread's
// slice of the slab; then each event is decoded straight into its
// thread's next slot and translated there. The slab holds ct.Declared()
// events and the thread tables NumThreads entries, so the caller checks
// both against its memory budget first.
func TranslateWhole(ct *trace.CompiledTrace) (*Whole, error) {
	n := ct.Header().NumThreads
	if n <= 0 {
		return nil, fmt.Errorf("translate: NumThreads = %d, want > 0", n)
	}
	events := int(ct.Declared())
	w := wholes.take(events)
	if cap(w.slab) < events {
		w.slab = make([]trace.Event, events)
	}
	if cap(w.counts) < n {
		w.counts = make([]int, n)
		w.Threads = make([][]trace.Event, n)
	}
	if err := w.translate(ct); err != nil {
		w.Release()
		return nil, err
	}
	return w, nil
}

// translate fills w with ct's translation.
func (w *Whole) translate(ct *trace.CompiledTrace) error {
	hdr := ct.Header()
	n := hdr.NumThreads
	w.x.reset(n, hdr.EventOverhead)
	counts := w.counts[:n]
	if err := ct.CountThreads(counts); err != nil {
		return err
	}
	threads := w.Threads[:n]
	off := 0
	for i, c := range counts {
		threads[i] = w.slab[off : off : off+c]
		off += c
	}
	ps := ct.Source()
	for {
		th, err := ps.NextThread()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		evs := &threads[th]
		k := len(*evs)
		*evs = (*evs)[:k+1]
		e := &(*evs)[k]
		ps.Decode(e)
		if err := w.x.step(e); err != nil {
			return err
		}
	}
	if err := w.x.finish(); err != nil {
		return err
	}
	w.ParallelTrace = ParallelTrace{NumThreads: n, Threads: threads, Barriers: int(w.x.barHi), Phases: hdr.Phases}
	w.source, w.ideal = w.x.lastTime, w.x.maxTranslated
	return nil
}

// Release returns w to the free list. Neither w nor its ParallelTrace
// may be used afterwards.
func (w *Whole) Release() {
	w.ParallelTrace = ParallelTrace{Threads: w.Threads[:0]}
	wholes.put(w)
}

// wholes is the free list of released Wholes: two slots, the points a
// two-worker server translates at once.
var wholes wholeList

type wholeList struct {
	mu   sync.Mutex
	free [2]*Whole
}

// take returns a free Whole whose slab holds events, or else any free
// one (its slab is replaced), or else a new one.
func (l *wholeList) take(events int) *Whole {
	l.mu.Lock()
	defer l.mu.Unlock()
	pick := -1
	for i, w := range l.free {
		if w == nil {
			continue
		}
		if pick < 0 || cap(w.slab) >= events && cap(l.free[pick].slab) < events {
			pick = i
		}
	}
	if pick < 0 {
		return new(Whole)
	}
	w := l.free[pick]
	l.free[pick] = nil
	return w
}

// put keeps w in an empty slot, or in place of a free Whole with a
// smaller slab, or drops it.
func (l *wholeList) put(w *Whole) {
	l.mu.Lock()
	defer l.mu.Unlock()
	small := 0
	for i, f := range l.free {
		if f == nil {
			l.free[i] = w
			return
		}
		if cap(f.slab) < cap(l.free[small].slab) {
			small = i
		}
	}
	if cap(w.slab) > cap(l.free[small].slab) {
		l.free[small] = w
	}
}
