package trace

import (
	"io"

	"extrap/internal/vtime"
)

// Header carries a trace's metadata separate from its event stream: the
// thread count, the per-event instrumentation overhead, and the
// phase-name table. It is everything a streaming consumer needs before
// the first event, and everything the binary codec writes before the
// event records.
type Header struct {
	NumThreads    int
	EventOverhead vtime.Time
	Phases        []string
}

// Reader is a forward-only cursor over an event stream. Next returns
// io.EOF after the last event. Readers are single-consumer: they are not
// safe for concurrent use.
type Reader interface {
	Next() (Event, error)
}

// SliceReader adapts an in-memory event slice to the Reader cursor, so
// whole-trace callers and streaming callers share one consumption API.
// The slice is not copied; it must not be mutated while being read.
type SliceReader struct {
	evs []Event
	pos int
}

// NewSliceReader returns a Reader over evs.
func NewSliceReader(evs []Event) *SliceReader { return &SliceReader{evs: evs} }

// Next returns the next event or io.EOF.
func (r *SliceReader) Next() (Event, error) {
	if r.pos >= len(r.evs) {
		return Event{}, io.EOF
	}
	e := r.evs[r.pos]
	r.pos++
	return e, nil
}

// Header returns the trace's metadata. The Phases slice is shared, not
// copied.
func (t *Trace) Header() Header {
	return Header{NumThreads: t.NumThreads, EventOverhead: t.EventOverhead, Phases: t.Phases}
}

// Reader returns a cursor over the trace's events.
func (t *Trace) Reader() *SliceReader { return NewSliceReader(t.Events) }
