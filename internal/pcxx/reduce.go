package pcxx

import (
	"extrap/internal/pcxx/dist"
)

// This file provides the collective patterns pC++ programs build from
// remote reads and barriers: reductions and broadcasts over a per-thread
// value collection. They are written exactly as a pC++ benchmark would
// write them — owner-computes local updates, remote reads of other
// threads' partials, global barriers between rounds — so their
// communication shows up in traces like any user code.

// PerThread creates a collection with exactly one element per thread,
// element i owned by thread i. valueBytes is the element transfer size.
func PerThread[E any](rt *Runtime, name string, valueBytes int64) *Collection[E] {
	n := rt.Threads()
	return NewCollection[E](rt, name, dist.NewBlock(n, n), valueBytes)
}

// ReduceWith performs a binary-tree reduction of the per-thread partials
// in c (one float64 per thread, element i owned by thread i) with an
// arbitrary associative fold op. After the call, thread 0's element holds
// the reduced value; all threads are synchronized. Each round costs one
// barrier; active threads read their partner's partial remotely and fold
// it into their own element. All threads must pass the same op.
func ReduceWith(t *Thread, c *Collection[float64], op func(a, b float64) float64) {
	n := t.N()
	for stride := 1; stride < n; stride *= 2 {
		t.Barrier()
		partner := t.id + stride
		if t.id%(2*stride) == 0 && partner < n {
			v := c.Read(t, partner)
			p := c.Local(t, t.id)
			*p = op(*p, v)
			t.Flops(1)
		}
	}
	t.Barrier()
}

// ReduceSum is ReduceWith specialized to addition.
func ReduceSum(t *Thread, c *Collection[float64]) {
	ReduceWith(t, c, func(a, b float64) float64 { return a + b })
}

// BroadcastRead returns element src of c on every thread: threads other
// than the owner perform a remote read. A barrier before the reads makes
// sure the value is complete; a barrier after them makes sure no thread
// overwrites the source (e.g. for a following reduction) while slower
// threads are still reading.
func BroadcastRead(t *Thread, c *Collection[float64], src int) float64 {
	t.Barrier()
	v := c.Read(t, src)
	t.Barrier()
	return v
}

// AllReduceSum combines ReduceSum with a broadcast so that every thread
// returns the global sum of the per-thread partials in c.
func AllReduceSum(t *Thread, c *Collection[float64]) float64 {
	ReduceSum(t, c)
	return BroadcastRead(t, c, 0)
}

// AllReduceWith combines ReduceWith with a broadcast so that every thread
// returns the reduced value.
func AllReduceWith(t *Thread, c *Collection[float64], op func(a, b float64) float64) float64 {
	ReduceWith(t, c, op)
	return BroadcastRead(t, c, 0)
}
