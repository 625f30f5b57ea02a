package pcxx

import (
	"fmt"

	"extrap/internal/pcxx/dist"
	"extrap/internal/trace"
)

// Collection is a distributed array of elements of type E, the pC++
// collection abstraction. Elements live in a global space (the 1-processor
// runtime keeps everything in one address space, so a remote access is
// indistinguishable from a local one in timing — the paper's measurement
// trick), but ownership is defined by the distribution, and every access
// to a non-owned element records a remote access event.
type Collection[E any] struct {
	id        int32
	name      string
	rt        *Runtime
	dist      dist.Distribution
	elems     []E
	elemBytes int64
}

// NewCollection registers a collection with the runtime. elemBytes is the
// compiler-estimated transfer size of one element — what the high-level
// measurement attributes to each remote access under CompilerEstimate
// mode.
func NewCollection[E any](rt *Runtime, name string, d dist.Distribution, elemBytes int64) *Collection[E] {
	if elemBytes <= 0 {
		panic(fmt.Sprintf("pcxx: collection %q: elemBytes must be positive, got %d", name, elemBytes))
	}
	c := &Collection[E]{
		id:        rt.nextCollectionID,
		name:      name,
		rt:        rt,
		dist:      d,
		elems:     make([]E, d.Size()),
		elemBytes: elemBytes,
	}
	rt.nextCollectionID++
	return c
}

// Owner returns the thread owning element i.
func (c *Collection[E]) Owner(i int) int { return c.dist.Owner(i) }

// Local returns a pointer to element i, which must be owned by t; it
// panics otherwise, enforcing the owner-computes discipline.
func (c *Collection[E]) Local(t *Thread, i int) *E {
	if c.dist.Owner(i) != t.id {
		panic(fmt.Sprintf("pcxx: thread %d accessed %s[%d] locally, owner is %d",
			t.id, c.name, i, c.dist.Owner(i)))
	}
	return &c.elems[i]
}

// recordAccess emits a remote access event for element i with the
// configured size attribution.
func (c *Collection[E]) recordAccess(t *Thread, kind trace.Kind, i int, actualBytes int64) {
	size := c.elemBytes
	if t.rt.cfg.SizeMode == ActualSize {
		size = actualBytes
	}
	t.rt.record(trace.Event{
		Kind:   kind,
		Thread: int32(t.id),
		Arg0:   int64(c.dist.Owner(i)),
		Arg1:   size,
		Arg2:   trace.PackRef(c.id, int32(i)),
	})
}

// Read returns a copy of element i. If t does not own i, a remote read of
// the full element is recorded.
func (c *Collection[E]) Read(t *Thread, i int) E {
	if c.dist.Owner(i) != t.id {
		c.recordAccess(t, trace.KindRemoteRead, i, c.elemBytes)
	}
	return c.elems[i]
}

// ReadPart returns a read-only view of element i when only actualBytes of
// it are needed (the compiler's partial-transfer optimization). Under
// CompilerEstimate size attribution the recorded transfer is still the
// whole element — reproducing the measurement abstraction whose cost the
// paper's Grid study uncovers.
func (c *Collection[E]) ReadPart(t *Thread, i int, actualBytes int64) *E {
	if actualBytes < 0 || actualBytes > c.elemBytes {
		panic(fmt.Sprintf("pcxx: %s[%d]: partial read of %d bytes from %d-byte element",
			c.name, i, actualBytes, c.elemBytes))
	}
	if c.dist.Owner(i) != t.id {
		c.recordAccess(t, trace.KindRemoteRead, i, actualBytes)
	}
	return &c.elems[i]
}

// Write stores v into element i. A non-owned target records a remote
// write event (the §5 extension of the paper; the benchmarks in the suite
// do not use it, but the runtime and simulator support it).
func (c *Collection[E]) Write(t *Thread, i int, v E) {
	if c.dist.Owner(i) != t.id {
		c.recordAccess(t, trace.KindRemoteWrite, i, c.elemBytes)
	}
	c.elems[i] = v
}

// ForOwned calls f for every element index owned by t, ascending.
func (c *Collection[E]) ForOwned(t *Thread, f func(i int)) {
	for i := 0; i < len(c.elems); i++ {
		if c.dist.Owner(i) == t.id {
			f(i)
		}
	}
}

// LocalCount returns the number of elements t owns.
func (c *Collection[E]) LocalCount(t *Thread) int { return c.dist.LocalCount(t.id) }

// Collection2D is a two-dimensional collection over a Dist2D: the natural
// container for grid benchmarks and matrices. Elements are addressed by
// (row, col).
type Collection2D[E any] struct {
	flat *Collection[E]
	d2   *dist.Dist2D
}

// NewCollection2D registers a rows×cols collection distributed by d2.
func NewCollection2D[E any](rt *Runtime, name string, d2 *dist.Dist2D, elemBytes int64) *Collection2D[E] {
	return &Collection2D[E]{
		flat: NewCollection[E](rt, name, d2, elemBytes),
		d2:   d2,
	}
}

// Dist returns the 2-D distribution.
func (c *Collection2D[E]) Dist() *dist.Dist2D { return c.d2 }

// index linearizes (r, c) row-major.
func (c *Collection2D[E]) index(r, col int) int { return r*c.d2.Cols() + col }

// Local returns a pointer to (r, col), which must be owned by t.
func (c *Collection2D[E]) Local(t *Thread, r, col int) *E {
	return c.flat.Local(t, c.index(r, col))
}

// Read returns a copy of element (r, col), recording a remote read when t
// is not the owner.
func (c *Collection2D[E]) Read(t *Thread, r, col int) E {
	return c.flat.Read(t, c.index(r, col))
}

// ForOwned calls f for every (r, col) owned by t, row-major.
func (c *Collection2D[E]) ForOwned(t *Thread, f func(r, col int)) {
	for r := 0; r < c.d2.Rows(); r++ {
		for col := 0; col < c.d2.Cols(); col++ {
			if c.d2.OwnerRC(r, col) == t.id {
				f(r, col)
			}
		}
	}
}
