package sim

import (
	"extrap/internal/vtime"
)

// evKind discriminates future-event-list entries.
type evKind uint8

const (
	// evComputeDone fires when a thread's current compute segment ends.
	evComputeDone evKind = iota
	// evMsgArrive fires when a message becomes available to software at
	// its destination processor.
	evMsgArrive
	// evPollTick fires at a poll-policy chunk boundary.
	evPollTick
	// evResume fires when a blocked thread should continue (reply
	// consumed, barrier release granted, service backlog drained).
	evResume
)

// noMsg marks an event that carries no message reference.
const noMsg int32 = -1

// event is one scheduled simulation occurrence. seq breaks time ties
// deterministically in schedule order; gen invalidates superseded
// compute-done/poll events (e.g. after an interrupt extends a segment).
// The struct is deliberately pointer-free (messages are slab indices, not
// pointers) so the event list moves events without GC write barriers.
// seq and gen are uint32: both are bounded by the engine's 2^28 event
// budget, far below overflow.
type event struct {
	at     vtime.Time
	seq    uint32
	gen    uint32
	thread int32
	msg    int32 // msgSlab index, or noMsg
	kind   evKind
}

// fel is the future event list: pending events by value, kept in
// (time, seq) order as they are inserted, so the next event is always the
// front one and pop costs no comparisons. q[head:] is the list; slots
// before head are popped events whose room the list reuses. An insert
// finds its place by binary search and opens a gap by moving the shorter
// side of the list one slot: toward the free room before head when the
// place is nearer the front, otherwise toward the back. The common cases
// — after everything pending, or before it with room at the front — move
// nothing. Storing events inline rather than behind pointers keeps the
// simulation hot loop free of per-event heap allocations — the backing
// array is reused as events come and go. Pop order is a pure function of
// the (time, seq) total order — seq is unique — so the list's layout
// cannot change results, only the constant factor.
type fel struct {
	q      []event
	head   int
	nextSq uint32
}

// before orders events by (time, schedule sequence).
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (f *fel) schedule(at vtime.Time, kind evKind, thread int32, gen uint32, msg int32) {
	ev := event{at: at, seq: f.nextSq, kind: kind, thread: thread, gen: gen, msg: msg}
	f.nextSq++
	f.insert(ev)
}

// insert adds ev at its place in (time, seq) order.
func (f *fel) insert(ev event) {
	if len(f.q) == cap(f.q) {
		f.grow()
	}
	n := len(f.q)
	switch {
	case f.head == n || !before(&ev, &f.q[n-1]):
		f.q = append(f.q, ev)
		return
	case f.head > 0 && before(&ev, &f.q[f.head]):
		f.head--
		f.q[f.head] = ev
		return
	}
	// q[n-1] follows ev, so its place is in [head, n-1]: the first event
	// ev precedes.
	lo, hi := f.head, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(&ev, &f.q[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if f.head > 0 && lo-f.head < n-lo {
		copy(f.q[f.head-1:lo-1], f.q[f.head:lo])
		f.head--
		f.q[lo-1] = ev
		return
	}
	f.q = f.q[:n+1]
	copy(f.q[lo+1:], f.q[lo:n])
	f.q[lo] = ev
}

// grow makes room at the back of a full backing array: it compacts the
// list to the front when at least half the array is popped room, and
// otherwise moves it to an array twice the size, so the array stays
// within a small factor of the list's high-water length and each event
// is moved O(1) times on average.
func (f *fel) grow() {
	live := len(f.q) - f.head
	if f.head > 0 && f.head >= live {
		copy(f.q, f.q[f.head:])
	} else {
		grown := make([]event, live, max(16, 2*cap(f.q)))
		copy(grown, f.q[f.head:])
		f.q = grown
	}
	f.q, f.head = f.q[:live], 0
}

// pending returns the queued events in pop order.
func (f *fel) pending() []event { return f.q[f.head:] }

func (f *fel) pop() event {
	ev := f.q[f.head]
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return ev
}

func (f *fel) empty() bool { return f.head == len(f.q) }
