package translate

import (
	"fmt"
	"io"
	"sync"

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
// concurrent use — exactly like the underlying trace.Reader. Streams
// come from a pool: Release hands one's buffers to the next NewStream.
type Stream struct {
	phases []string
	src    trace.Reader
	x      translator

	queues     []eventQueue
	cursors    []threadCursor
	pending    int
	maxPending int
	srcDone    bool
	err        error
}

// streams recycles released streams: their per-thread queues, cursors
// and translator tables.
var streams = sync.Pool{New: func() any { return new(Stream) }}

// NewStream starts a streaming translation of the trace described by hdr
// whose merged events arrive from src. The stream reuses the buffers of
// a released one when the pool has any.
func NewStream(hdr trace.Header, src trace.Reader, opts StreamOptions) (*Stream, error) {
	if hdr.NumThreads <= 0 {
		return nil, fmt.Errorf("translate: NumThreads = %d, want > 0", hdr.NumThreads)
	}
	s := streams.Get().(*Stream)
	s.reset(hdr, src, opts)
	return s, nil
}

// reset reinitializes s for a new translation, keeping its buffers.
func (s *Stream) reset(hdr trace.Header, src trace.Reader, opts StreamOptions) {
	n := hdr.NumThreads
	queues := s.queues
	if cap(queues) < n {
		// Every thread buffers at least a few events, so the queues'
		// first buffers are carved from one slab instead of n
		// allocations.
		queues = make([]eventQueue, n)
		slab := make([]trace.Event, n*queueSlab)
		for i := range queues {
			queues[i].buf = slab[i*queueSlab : (i+1)*queueSlab : (i+1)*queueSlab]
		}
	}
	queues = queues[:n]
	for i := range queues {
		queues[i].head, queues[i].size = 0, 0
	}
	cursors := s.cursors
	if cap(cursors) < n {
		cursors = make([]threadCursor, n)
	}
	cursors = cursors[:n]
	for i := range cursors {
		cursors[i] = threadCursor{s: s, id: i}
	}
	x := s.x
	x.reset(n, hdr.EventOverhead)
	*s = Stream{
		phases:     hdr.Phases,
		src:        src,
		x:          x,
		queues:     queues,
		cursors:    cursors,
		maxPending: opts.MaxPending,
	}
}

// Release returns the stream's buffers to the pool for a later
// NewStream. Neither the stream nor any cursor it handed out may be used
// afterwards; values already returned by them stay valid.
func (s *Stream) Release() {
	s.src, s.phases, s.err = nil, nil, nil
	streams.Put(s)
}

// NumThreads returns n.
func (s *Stream) NumThreads() int { return s.x.n }

// Phases returns the phase-name table carried over from the source.
func (s *Stream) Phases() []string { return s.phases }

// Thread returns the translated event cursor for thread i.
func (s *Stream) Thread(i int) trace.Reader {
	if i < 0 || i >= len(s.cursors) {
		return &threadCursor{s: s, id: i} // every Next reports the range error
	}
	return &s.cursors[i]
}

// Barriers reports the number of global barriers seen so far; it is the
// program's total once the stream is drained.
func (s *Stream) Barriers() int { return int(s.x.barHi) }

// SourceDuration reports the timestamp of the last source event pulled —
// the 1-processor virtual execution time once the stream is drained.
func (s *Stream) SourceDuration() vtime.Time { return s.x.lastTime }

// Duration reports the latest translated timestamp produced so far — the
// idealized parallel execution time once the stream is drained.
func (s *Stream) Duration() vtime.Time { return s.x.maxTranslated }

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
	if id < 0 || id >= s.x.n {
		return trace.Event{}, fmt.Errorf("translate: thread %d out of range [0,%d)", id, s.x.n)
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
		if s.err = s.x.finish(); s.err == nil {
			s.srcDone = true
		}
		return
	}
	if err == nil {
		err = s.x.step(&e)
	}
	if err != nil {
		s.err = err
		return
	}
	s.queues[e.Thread].push(e)
	s.pending++
	if s.maxPending > 0 && s.pending > s.maxPending {
		s.err = fmt.Errorf("translate: %d translated events buffered, cap %d — consumer skew exceeds the stream buffer", s.pending, s.maxPending)
	}
}

// queueSlab is each thread queue's initial capacity, in events; a power
// of two, like every capacity the queue grows to.
const queueSlab = 16

// eventQueue is a growable ring-buffer FIFO of events. Capacity grows to
// the high-water mark of one thread's buffered skew and is then reused,
// so steady-state translation does not allocate per event. Capacities
// are powers of two, so positions wrap by mask, and events hold no
// pointers, so popped slots are left as they are.
type eventQueue struct {
	buf  []trace.Event
	head int
	size int
}

// at returns the k-th queued event, k < size.
func (q *eventQueue) at(k int) *trace.Event {
	return &q.buf[(q.head+k)&(len(q.buf)-1)]
}

func (q *eventQueue) push(e trace.Event) {
	if q.size == len(q.buf) {
		grown := make([]trace.Event, max(queueSlab, 2*len(q.buf)))
		for i := 0; i < q.size; i++ {
			grown[i] = *q.at(i)
		}
		q.buf = grown
		q.head = 0
	}
	*q.at(q.size) = e
	q.size++
}

func (q *eventQueue) pop() trace.Event {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return e
}
