package translate

import (
	"fmt"
	"io"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// StreamOptions configures a streaming translation.
type StreamOptions struct {
	// MaxPending caps how many translated events may sit buffered across
	// all per-thread cursors at once. The consumer (the simulator) drains
	// threads in simulated-time order while the source arrives in
	// measurement order, so buffering is bounded by the event skew within
	// roughly one barrier epoch; a trace that exceeds the cap aborts with
	// an error instead of ballooning memory. Zero or negative means no
	// cap.
	MaxPending int
}

// Stream is the streaming counterpart of Translate: it consumes the
// merged 1-processor measurement trace through a cursor and exposes one
// translated cursor per thread. Events are translated on demand — a
// Thread(i).Next() call pulls source events (translating and buffering
// events of other threads) until thread i's next event materializes — so
// peak memory is O(threads + pending buffer), not O(total events).
//
// Validation is inline: the structural checks of Trace.Validate run as
// events stream past, and the end-of-trace invariants (no thread stuck
// in a barrier, all threads completed equally many barriers) run when
// the source is exhausted. Any violation surfaces as a sticky error on
// every cursor.
//
// A Stream and its cursors are single-consumer and not safe for
// concurrent use — exactly like the underlying trace.Reader.
type Stream struct {
	n        int
	overhead vtime.Time
	phases   []string
	src      trace.Reader

	queues     []eventQueue
	pending    int
	maxPending int
	srcDone    bool
	err        error

	// Inline validation state (mirrors Trace.Validate).
	lastTime    vtime.Time
	nextBarrier []int64
	inBarrier   []bool

	// Translation state (mirrors Translate).
	lastOrig       []vtime.Time
	lastTranslated []vtime.Time
	started        []bool
	barriers       []barrierState // indexed by barrier id (ids are dense)
	idx            int

	srcDuration   vtime.Time // timestamp of the last source event
	maxTranslated vtime.Time // latest translated timestamp seen
}

// NewStream starts a streaming translation of the trace described by hdr
// whose merged events arrive from src.
func NewStream(hdr trace.Header, src trace.Reader, opts StreamOptions) (*Stream, error) {
	if hdr.NumThreads <= 0 {
		return nil, fmt.Errorf("translate: NumThreads = %d, want > 0", hdr.NumThreads)
	}
	n := hdr.NumThreads
	return &Stream{
		n:           n,
		overhead:    hdr.EventOverhead,
		phases:      hdr.Phases,
		src:         src,
		queues:      make([]eventQueue, n),
		maxPending:  opts.MaxPending,
		nextBarrier: make([]int64, n),
		inBarrier:   make([]bool, n),

		lastOrig:       make([]vtime.Time, n),
		lastTranslated: make([]vtime.Time, n),
		started:        make([]bool, n),
	}, nil
}

// NumThreads returns n.
func (s *Stream) NumThreads() int { return s.n }

// Phases returns the phase-name table carried over from the source.
func (s *Stream) Phases() []string { return s.phases }

// Thread returns the translated event cursor for thread i.
func (s *Stream) Thread(i int) trace.Reader { return &threadCursor{s: s, id: i} }

// Barriers reports the number of global barriers seen so far; it is the
// program's total once the stream is drained.
func (s *Stream) Barriers() int { return len(s.barriers) }

// SourceDuration reports the timestamp of the last source event pulled —
// the 1-processor virtual execution time once the stream is drained.
func (s *Stream) SourceDuration() vtime.Time { return s.srcDuration }

// Duration reports the latest translated timestamp produced so far — the
// idealized parallel execution time once the stream is drained.
func (s *Stream) Duration() vtime.Time { return s.maxTranslated }

// Pending reports how many translated events sit buffered across all
// per-thread cursors.
func (s *Stream) Pending() int { return s.pending }

// Err returns the sticky stream error, if any (io.EOF is not an error).
func (s *Stream) Err() error { return s.err }

// Drain consumes any source events not yet pulled, completing validation
// and the duration/barrier totals. Buffered translated events remain
// readable. It returns the sticky stream error, if any.
func (s *Stream) Drain() error {
	for s.err == nil && !s.srcDone {
		s.pull()
	}
	return s.err
}

type threadCursor struct {
	s  *Stream
	id int
}

func (c *threadCursor) Next() (trace.Event, error) { return c.s.next(c.id) }

// next returns thread id's next translated event, pulling the source as
// needed.
func (s *Stream) next(id int) (trace.Event, error) {
	if id < 0 || id >= s.n {
		return trace.Event{}, fmt.Errorf("translate: thread %d out of range [0,%d)", id, s.n)
	}
	for {
		if q := &s.queues[id]; q.size > 0 {
			s.pending--
			return q.pop(), nil
		}
		if s.err != nil {
			return trace.Event{}, s.err
		}
		if s.srcDone {
			return trace.Event{}, io.EOF
		}
		s.pull()
	}
}

// pull reads, validates, and translates one source event into its
// thread's queue; on source EOF it runs the end-of-trace checks. Errors
// become sticky.
func (s *Stream) pull() {
	e, err := s.src.Next()
	if err == io.EOF {
		s.finish()
		return
	}
	if err != nil {
		s.err = err
		return
	}

	// Inline structural validation, mirroring Trace.Validate.
	if !e.Kind.Valid() {
		s.err = fmt.Errorf("trace: event %d has invalid kind %d", s.idx, e.Kind)
		return
	}
	if e.Time < s.lastTime {
		s.err = fmt.Errorf("trace: event %d time %v precedes previous %v", s.idx, e.Time, s.lastTime)
		return
	}
	s.lastTime = e.Time
	if int(e.Thread) < 0 || int(e.Thread) >= s.n {
		s.err = fmt.Errorf("trace: event %d thread %d out of range [0,%d)", s.idx, e.Thread, s.n)
		return
	}
	th := int(e.Thread)
	switch e.Kind {
	case trace.KindBarrierEntry:
		if s.inBarrier[th] {
			s.err = fmt.Errorf("trace: event %d: thread %d enters barrier %d while already in a barrier", s.idx, th, e.Arg0)
			return
		}
		if e.Arg0 != s.nextBarrier[th] {
			s.err = fmt.Errorf("trace: event %d: thread %d enters barrier %d, want %d", s.idx, th, e.Arg0, s.nextBarrier[th])
			return
		}
		s.inBarrier[th] = true
	case trace.KindBarrierExit:
		if !s.inBarrier[th] {
			s.err = fmt.Errorf("trace: event %d: thread %d exits barrier %d without entering", s.idx, th, e.Arg0)
			return
		}
		if e.Arg0 != s.nextBarrier[th] {
			s.err = fmt.Errorf("trace: event %d: thread %d exits barrier %d, want %d", s.idx, th, e.Arg0, s.nextBarrier[th])
			return
		}
		s.inBarrier[th] = false
		s.nextBarrier[th]++
	case trace.KindRemoteRead, trace.KindRemoteWrite:
		if e.Arg1 < 0 {
			s.err = fmt.Errorf("trace: event %d: negative transfer size %d", s.idx, e.Arg1)
			return
		}
		if e.Arg0 < 0 || int(e.Arg0) >= s.n {
			s.err = fmt.Errorf("trace: event %d: owner thread %d out of range", s.idx, e.Arg0)
			return
		}
	}

	// Translation proper, mirroring Translate event for event.
	var tNew vtime.Time
	if !s.started[th] {
		tNew = 0
		s.started[th] = true
	} else {
		delta := e.Time - s.lastOrig[th] - s.overhead
		if delta < 0 {
			delta = 0
		}
		tNew = s.lastTranslated[th] + delta
	}

	switch e.Kind {
	case trace.KindBarrierEntry:
		for int64(len(s.barriers)) <= e.Arg0 {
			s.barriers = append(s.barriers, barrierState{})
		}
		b := &s.barriers[e.Arg0]
		b.entries++
		if tNew > b.release {
			b.release = tNew
		}
	case trace.KindBarrierExit:
		if e.Arg0 < 0 || e.Arg0 >= int64(len(s.barriers)) || s.barriers[e.Arg0].entries != s.n {
			got := 0
			if e.Arg0 >= 0 && e.Arg0 < int64(len(s.barriers)) {
				got = s.barriers[e.Arg0].entries
			}
			s.err = fmt.Errorf(
				"translate: event %d: exit of barrier %d before all %d threads entered (%d so far) — was the measurement preemptive?",
				s.idx, e.Arg0, s.n, got)
			return
		}
		tNew = s.barriers[e.Arg0].release
	}

	s.lastOrig[th] = e.Time
	s.lastTranslated[th] = tNew
	s.srcDuration = e.Time
	if tNew > s.maxTranslated {
		s.maxTranslated = tNew
	}
	s.idx++

	e.Time = tNew
	s.queues[th].push(e)
	s.pending++
	if s.maxPending > 0 && s.pending > s.maxPending {
		s.err = fmt.Errorf("translate: %d translated events buffered, cap %d — consumer skew exceeds the stream buffer", s.pending, s.maxPending)
	}
}

// finish runs the end-of-trace invariants once the source is exhausted.
func (s *Stream) finish() {
	for th, b := range s.inBarrier {
		if b {
			s.err = fmt.Errorf("trace: thread %d still inside barrier %d at end of trace", th, s.nextBarrier[th])
			return
		}
	}
	for th := 1; th < s.n; th++ {
		if s.nextBarrier[th] != s.nextBarrier[0] {
			s.err = fmt.Errorf("trace: thread %d completed %d barriers, thread 0 completed %d",
				th, s.nextBarrier[th], s.nextBarrier[0])
			return
		}
	}
	s.srcDone = true
}

// eventQueue is a growable ring-buffer FIFO of events. Capacity grows to
// the high-water mark of one thread's buffered skew and is then reused,
// so steady-state translation does not allocate per event.
type eventQueue struct {
	buf  []trace.Event
	head int
	size int
}

func (q *eventQueue) push(e trace.Event) {
	if q.size == len(q.buf) {
		grown := make([]trace.Event, max(16, 2*len(q.buf)))
		for i := 0; i < q.size; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = e
	q.size++
}

func (q *eventQueue) pop() trace.Event {
	e := q.buf[q.head]
	q.buf[q.head] = trace.Event{}
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return e
}
