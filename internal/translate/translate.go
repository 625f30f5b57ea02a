// Package translate implements the trace translation algorithm of the
// extrapolation technique: it takes the merged trace of an n-thread
// program measured on one processor and produces n per-thread traces whose
// timestamps reflect an idealized n-processor execution.
//
// The algorithm (Section 3.2 of the paper):
//
//   - Non-synchronization events keep their inter-event deltas: if e1 and
//     e2 are consecutive events of one thread at t1 and t2, and e1 was
//     adjusted to t1', then e2 is adjusted to t2 − t1 + t1'.
//   - Barrier exits are adjusted to the translated timestamp of the entry
//     of the *last* thread to enter that barrier — threads exit the
//     instant the last one arrives (instant barrier).
//   - Remote accesses are instantaneous (they cost nothing here; the
//     simulator charges them later).
//   - The per-event instrumentation overhead recorded with the trace is
//     subtracted from every inter-event delta, compensating for
//     measurement perturbation.
//
// The soundness of the delta rule rests on the non-preemptive measurement
// runtime: between two events a thread was never descheduled, so the gap
// is pure computation of that thread.
package translate

import (
	"fmt"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// ParallelTrace is the result of translation: one event list per thread,
// each timestamped as if the threads ran concurrently on n processors
// with free communication and synchronization.
type ParallelTrace struct {
	// NumThreads is n.
	NumThreads int
	// Threads[i] holds thread i's translated events in time order.
	Threads [][]trace.Event
	// Barriers is the number of global barriers in the program.
	Barriers int
	// Phases carries over the phase-name table of the source trace.
	Phases []string
}

// Duration returns the idealized parallel execution time: the latest
// translated event timestamp across all threads.
func (pt *ParallelTrace) Duration() vtime.Time {
	var d vtime.Time
	for _, evs := range pt.Threads {
		if n := len(evs); n > 0 && evs[n-1].Time > d {
			d = evs[n-1].Time
		}
	}
	return d
}

// Events returns the total number of translated events.
func (pt *ParallelTrace) Events() int {
	n := 0
	for _, evs := range pt.Threads {
		n += len(evs)
	}
	return n
}

// Flatten merges the per-thread translated event lists back into a single
// time-ordered trace — the form consumed by the codecs and the profile
// analyzer. The merge is stable by thread id at equal timestamps.
func (pt *ParallelTrace) Flatten() *trace.Trace {
	out := trace.New(pt.NumThreads)
	out.Phases = append([]string(nil), pt.Phases...)
	idx := make([]int, pt.NumThreads)
	for {
		best := -1
		for t := 0; t < pt.NumThreads; t++ {
			if idx[t] >= len(pt.Threads[t]) {
				continue
			}
			if best == -1 || pt.Threads[t][idx[t]].Time < pt.Threads[best][idx[best]].Time {
				best = t
			}
		}
		if best == -1 {
			return out
		}
		out.Append(pt.Threads[best][idx[best]])
		idx[best]++
	}
}

// ThreadTrace extracts thread i's translated events as a standalone trace
// file — the paper's "n trace files each containing events from one
// thread".
func (pt *ParallelTrace) ThreadTrace(i int) *trace.Trace {
	out := trace.New(pt.NumThreads)
	out.Phases = append([]string(nil), pt.Phases...)
	out.Events = append([]trace.Event(nil), pt.Threads[i]...)
	return out
}

// Translate converts a 1-processor measurement trace into a
// ParallelTrace. It processes the merged events in measurement order,
// validating each as it goes and maintaining per-thread delta chains;
// because the measurement runtime only switches threads at barriers,
// all entries of a barrier precede all its exits in the merged order, so
// barrier release times are complete by the time the first exit is
// translated. A trace Trace.Validate rejects is rejected here too.
func Translate(tr *trace.Trace) (*ParallelTrace, error) {
	if tr.NumThreads <= 0 {
		return nil, fmt.Errorf("translate: NumThreads = %d, want > 0", tr.NumThreads)
	}
	n := tr.NumThreads
	pt := &ParallelTrace{
		NumThreads: n,
		Threads:    make([][]trace.Event, n),
		Phases:     append([]string(nil), tr.Phases...),
	}
	for i := range pt.Threads {
		pt.Threads[i] = []trace.Event{}
	}
	x := newTranslator(n, tr.EventOverhead)
	for _, e := range tr.Events {
		if err := x.step(&e); err != nil {
			return nil, err
		}
		pt.Threads[e.Thread] = append(pt.Threads[e.Thread], e)
	}
	if err := x.finish(); err != nil {
		return nil, err
	}
	pt.Barriers = int(x.barHi)
	return pt, nil
}

// translator is the per-event validate-and-translate step shared by
// Translate and Stream. step checks one merged measurement event
// against the structural rules of Trace.Validate and rewrites its
// timestamp onto the idealized n-processor timescale:
//
//   - a thread's first event anchors its chain at time 0 (in the ideal
//     n-processor run all threads start together);
//   - every later event keeps its inter-event delta, less the recorded
//     per-event instrumentation overhead (clamped at zero rather than
//     running time backwards);
//   - a barrier exit is moved to the latest translated entry of that
//     barrier (instant barrier), regardless of when the 1-processor
//     scheduler happened to resume the thread.
//
// finish runs the end-of-trace invariants once the source is exhausted.
type translator struct {
	n        int
	overhead vtime.Time

	lastTime vtime.Time    // timestamp of the previous source event
	threads  []threadState // indexed by thread id
	// barriers holds the records of the ffBarWindow most recent barrier
	// ids, slot id&barMask: a thread enters barrier b+1 only after all
	// threads entered b, so only the last two ids are ever live. barHi is
	// one past the highest id entered (the barrier count so far).
	barriers      [ffBarWindow]barrierState
	barHi         int64
	idx           int        // source events translated so far
	maxTranslated vtime.Time // latest translated timestamp produced
}

// threadState is one thread's validation state (mirroring
// Trace.Validate) and delta chain.
type threadState struct {
	lastOrig       vtime.Time // original timestamp of the thread's previous event
	lastTranslated vtime.Time // translated timestamp of the thread's previous event
	nextBarrier    int64      // id of the next barrier the thread must enter
	inBarrier      bool       // between a barrier entry and its exit
	started        bool       // the thread has emitted its first event
}

func newTranslator(n int, overhead vtime.Time) translator {
	var x translator
	x.reset(n, overhead)
	return x
}

// reset reinitializes x for an n-thread trace, reusing its thread table.
func (x *translator) reset(n int, overhead vtime.Time) {
	threads := x.threads
	if cap(threads) < n {
		threads = make([]threadState, n)
	}
	threads = threads[:n]
	clear(threads)
	*x = translator{n: n, overhead: overhead, threads: threads}
}

// barMask maps a barrier id onto its ring slot.
const barMask = ffBarWindow - 1

// step validates e and rewrites e.Time to its translated timestamp.
func (x *translator) step(e *trace.Event) error {
	if !e.Kind.Valid() {
		return fmt.Errorf("trace: event %d has invalid kind %d", x.idx, e.Kind)
	}
	if e.Time < x.lastTime {
		return fmt.Errorf("trace: event %d time %v precedes previous %v", x.idx, e.Time, x.lastTime)
	}
	th := int(e.Thread)
	if th < 0 || th >= x.n {
		return fmt.Errorf("trace: event %d thread %d out of range [0,%d)", x.idx, e.Thread, x.n)
	}
	t := &x.threads[th]
	switch e.Kind {
	case trace.KindBarrierEntry:
		if t.inBarrier {
			return fmt.Errorf("trace: event %d: thread %d enters barrier %d while already in a barrier", x.idx, th, e.Arg0)
		}
		if e.Arg0 != t.nextBarrier {
			return fmt.Errorf("trace: event %d: thread %d enters barrier %d, want %d", x.idx, th, e.Arg0, t.nextBarrier)
		}
		t.inBarrier = true
	case trace.KindBarrierExit:
		if !t.inBarrier {
			return fmt.Errorf("trace: event %d: thread %d exits barrier %d without entering", x.idx, th, e.Arg0)
		}
		if e.Arg0 != t.nextBarrier {
			return fmt.Errorf("trace: event %d: thread %d exits barrier %d, want %d", x.idx, th, e.Arg0, t.nextBarrier)
		}
		t.inBarrier = false
		t.nextBarrier++
	case trace.KindRemoteRead, trace.KindRemoteWrite:
		if e.Arg1 < 0 {
			return fmt.Errorf("trace: event %d: negative transfer size %d", x.idx, e.Arg1)
		}
		if e.Arg0 < 0 || int(e.Arg0) >= x.n {
			return fmt.Errorf("trace: event %d: owner thread %d out of range", x.idx, e.Arg0)
		}
	}

	var tNew vtime.Time
	if t.started {
		delta := e.Time - t.lastOrig - x.overhead
		if delta < 0 {
			delta = 0
		}
		tNew = t.lastTranslated + delta
	} else {
		t.started = true
	}
	switch e.Kind {
	case trace.KindBarrierEntry:
		// Validation made the id this thread's next barrier, so a new id
		// is exactly barHi and arms the slot of the dead id barHi-4.
		b := &x.barriers[e.Arg0&barMask]
		if e.Arg0 >= x.barHi {
			*b = barrierState{used: true, id: e.Arg0}
			x.barHi = e.Arg0 + 1
		} else if err := x.live(b, e.Arg0); err != nil {
			return err
		}
		b.entries++
		if tNew > b.release {
			b.release = tNew
		}
	case trace.KindBarrierExit:
		// The exit's id passed validation, so its entry record exists.
		b := &x.barriers[e.Arg0&barMask]
		if err := x.live(b, e.Arg0); err != nil {
			return err
		}
		if b.entries != x.n {
			return fmt.Errorf(
				"translate: event %d: exit of barrier %d before all %d threads entered (%d so far) — was the measurement preemptive?",
				x.idx, e.Arg0, x.n, b.entries)
		}
		tNew = b.release
	}

	x.lastTime = e.Time
	t.lastOrig = e.Time
	t.lastTranslated = tNew
	if tNew > x.maxTranslated {
		x.maxTranslated = tNew
	}
	x.idx++
	e.Time = tNew
	return nil
}

// finish checks the end-of-trace invariants: no thread is stuck inside
// a barrier and all threads completed equally many barriers (the
// data-parallel model has only global barriers).
func (x *translator) finish() error {
	for th, t := range x.threads {
		if t.inBarrier {
			return fmt.Errorf("trace: thread %d still inside barrier %d at end of trace", th, t.nextBarrier)
		}
	}
	for th, t := range x.threads {
		if t.nextBarrier != x.threads[0].nextBarrier {
			return fmt.Errorf("trace: thread %d completed %d barriers, thread 0 completed %d",
				th, t.nextBarrier, x.threads[0].nextBarrier)
		}
	}
	return nil
}

// live checks that ring slot b still holds barrier id. Validation keeps
// every access within the last two ids, so a recycled slot means a
// broken invariant, reported rather than read.
func (x *translator) live(b *barrierState, id int64) error {
	if !b.used || b.id != id {
		return fmt.Errorf("translate: event %d: barrier %d is not among the %d most recent (latest %d); its state was recycled",
			x.idx, id, ffBarWindow, x.barHi-1)
	}
	return nil
}

// barrierState tracks one global barrier during translation: how many
// threads have entered and the latest translated entry time (which
// becomes the release time).
type barrierState struct {
	used    bool // the ring slot holds barrier id's state
	id      int64
	entries int
	release vtime.Time
}
