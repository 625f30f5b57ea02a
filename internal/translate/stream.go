package translate

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// StreamOptions is NewStream's options parameter. It has no fields: a
// stream buffers at most the events of its trace, which
// trace.MaxTraceEvents bounds where the trace is parsed or recorded.
type StreamOptions struct{}

// Stream is the streaming counterpart of Translate: it consumes the
// merged 1-processor measurement trace through a cursor and hands out
// each thread's translated events in per-thread buffers. Events are
// translated on demand — Refill(i) pulls source events (translating and
// buffering events of other threads) until thread i has one — so peak
// memory is O(threads + pending buffer), not O(total events).
//
// Validation is inline: the structural checks of Trace.Validate run as
// events stream past, and the end-of-trace invariants (no thread stuck
// in a barrier, all threads completed equally many barriers) run when
// the source is exhausted. Any violation surfaces as a sticky error on
// every thread.
//
// A Stream is single-consumer and not safe for concurrent use — exactly
// like the underlying trace.Reader. Streams come from a pool: Release
// hands one's buffers to the next NewStream.
type Stream struct {
	phases []string
	src    trace.Reader
	// ps is src when it is a compiled-trace cursor, called directly so
	// the per-event pull makes no interface call.
	ps *trace.PatternSource
	x  translator

	bufs    []threadBufs
	pending int
	srcDone bool
	err     error
}

// threadBufs is one thread's pair of event buffers: pull appends to
// fill, and Refill hands fill to the consumer as out, taking the spent
// out back as the next fill. Both arrays stay with the stream, so a
// pooled stream refills without allocating once they have grown to the
// thread's buffered skew.
type threadBufs struct {
	fill, out []trace.Event
}

// streams recycles released streams: their per-thread buffers and
// translator tables.
var streams = sync.Pool{New: func() any { return new(Stream) }}

// NewStream starts a streaming translation of the trace described by hdr
// whose merged events arrive from src. The stream reuses the buffers of
// a released one when the pool has any.
func NewStream(hdr trace.Header, src trace.Reader, _ StreamOptions) (*Stream, error) {
	if hdr.NumThreads <= 0 {
		return nil, fmt.Errorf("translate: NumThreads = %d, want > 0", hdr.NumThreads)
	}
	s := streams.Get().(*Stream)
	s.reset(hdr, src)
	return s, nil
}

// reset reinitializes s for a new translation, keeping its buffers.
func (s *Stream) reset(hdr trace.Header, src trace.Reader) {
	n := hdr.NumThreads
	bufs := s.bufs
	if cap(bufs) < n {
		// Every thread buffers at least a few events, so its first
		// buffers are carved from one slab instead of 2n allocations.
		bufs = make([]threadBufs, n)
		slab := make([]trace.Event, 2*n*bufSlab)
		for i := range bufs {
			a := slab[2*i*bufSlab:]
			bufs[i] = threadBufs{fill: a[:0:bufSlab], out: a[bufSlab : bufSlab : 2*bufSlab]}
		}
	}
	bufs = bufs[:n]
	for i := range bufs {
		bufs[i].fill, bufs[i].out = bufs[i].fill[:0], bufs[i].out[:0]
	}
	ps, _ := src.(*trace.PatternSource)
	x := s.x
	x.reset(n, hdr.EventOverhead)
	*s = Stream{
		phases: hdr.Phases,
		src:    src,
		ps:     ps,
		x:      x,
		bufs:   bufs,
	}
}

// Release returns the stream's buffers to the pool for a later
// NewStream. Neither the stream nor any buffer or cursor it handed out
// may be used afterwards; events already copied out stay valid.
func (s *Stream) Release() {
	s.src, s.ps, s.phases, s.err = nil, nil, nil, nil
	streams.Put(s)
}

// NumThreads returns n.
func (s *Stream) NumThreads() int { return s.x.n }

// Phases returns the phase-name table carried over from the source.
func (s *Stream) Phases() []string { return s.phases }

// Thread returns an event cursor over thread i's translated events, for
// consumers that read one event at a time. A thread is read either
// through its cursor or through Refill, not both.
func (s *Stream) Thread(i int) trace.Reader {
	return &threadCursor{s: s, id: i}
}

// SourceDuration reports the timestamp of the last source event pulled —
// the 1-processor virtual execution time once the stream is drained.
func (s *Stream) SourceDuration() vtime.Time { return s.x.lastTime }

// Duration reports the latest translated timestamp produced so far — the
// idealized parallel execution time once the stream is drained.
func (s *Stream) Duration() vtime.Time { return s.x.maxTranslated }

// Pending reports how many translated events sit buffered, pulled from
// the source but not yet handed out by Refill.
func (s *Stream) Pending() int { return s.pending }

// Queued returns thread i's buffered events that the next Refill hands
// out, in order. The slice is valid until the stream is next pulled.
func (s *Stream) Queued(i int) []trace.Event { return s.bufs[i].fill }

// Drain consumes any source events not yet pulled, completing validation
// and the duration/barrier totals. Buffered translated events remain
// readable. It returns the sticky stream error, if any.
func (s *Stream) Drain() error {
	for s.err == nil && !s.srcDone {
		s.pull()
	}
	return s.err
}

// Refill hands out thread i's next translated events, in order, pulling
// the source only while thread i has none buffered. The returned buffer
// is the consumer's until its next Refill(i), which reuses it: the
// consumer calls Refill only once it has read every event of the
// previous one. Refill returns io.EOF when thread i has no events left,
// or the sticky stream error.
func (s *Stream) Refill(i int) ([]trace.Event, error) {
	if i < 0 || i >= s.x.n {
		return nil, fmt.Errorf("translate: thread %d out of range [0,%d)", i, s.x.n)
	}
	b := &s.bufs[i]
	for len(b.fill) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		if s.srcDone {
			return nil, io.EOF
		}
		s.pull()
	}
	b.fill, b.out = b.out[:0], b.fill
	s.pending -= len(b.out)
	return b.out, nil
}

// threadCursor reads one thread's events a buffer at a time.
type threadCursor struct {
	s   *Stream
	id  int
	evs []trace.Event
	pos int
}

func (c *threadCursor) Next() (trace.Event, error) {
	if c.pos == len(c.evs) {
		evs, err := c.s.Refill(c.id)
		if err != nil {
			return trace.Event{}, err
		}
		c.evs, c.pos = evs, 0
	}
	c.pos++
	return c.evs[c.pos-1], nil
}

// pull reads, validates, and translates one source event into its
// thread's buffer; on source EOF it runs the end-of-trace checks. Errors
// become sticky. A compiled-trace cursor decodes the event straight into
// its thread's next buffer slot, where it is translated in place.
func (s *Stream) pull() {
	if s.ps == nil {
		s.pullReader()
		return
	}
	th, err := s.ps.NextThread()
	if err != nil {
		s.end(err)
		return
	}
	b := &s.bufs[th]
	k := len(b.fill)
	if k == cap(b.fill) {
		b.fill = slices.Grow(b.fill, 1)
	}
	b.fill = b.fill[:k+1]
	e := &b.fill[k]
	s.ps.Decode(e)
	if err := s.x.step(e); err != nil {
		b.fill = b.fill[:k]
		s.err = err
		return
	}
	s.pending++
}

// pullReader is pull for any other source, which hands out events by
// value.
func (s *Stream) pullReader() {
	e, err := s.src.Next()
	if err != nil {
		s.end(err)
		return
	}
	if err := s.x.step(&e); err != nil {
		s.err = err
		return
	}
	b := &s.bufs[e.Thread]
	b.fill = append(b.fill, e)
	s.pending++
}

// end handles the source's error: io.EOF runs the end-of-trace checks,
// anything else becomes the sticky error.
func (s *Stream) end(err error) {
	if err == io.EOF {
		if s.err = s.x.finish(); s.err == nil {
			s.srcDone = true
		}
		return
	}
	s.err = err
}

// bufSlab is each thread buffer's initial capacity, in events.
const bufSlab = 16
