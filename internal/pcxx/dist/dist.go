// Package dist implements the data-distribution algebra of the pC++-style
// runtime: per-dimension Block, Cyclic, and Whole attributes for one- and
// two-dimensional collections, mapped onto a set of threads.
//
// The 2-D (BLOCK,BLOCK) mapping reproduces the pC++ behaviour the paper
// calls out: a two-dimensional collection is laid out on an s×s processor
// grid with s = floor(sqrt(N)), so when N is not a perfect square the
// remaining N−s² threads own no elements and sit idle — the cause of the
// "no improvement from 4 to 8 processors" plateau in Figures 4 and 5.
package dist

import "fmt"

// Attr is a per-dimension distribution attribute.
type Attr uint8

// Distribution attributes, matching the pC++ compiler's per-dimension
// choices for collections.
const (
	// Whole leaves the dimension undistributed (mapped entirely to the
	// first processor coordinate of that dimension).
	Whole Attr = iota
	// Block splits the dimension into contiguous equal blocks.
	Block
	// Cyclic deals indices round-robin across the dimension's processors.
	Cyclic
)

func (a Attr) String() string {
	switch a {
	case Whole:
		return "Whole"
	case Block:
		return "Block"
	case Cyclic:
		return "Cyclic"
	}
	return fmt.Sprintf("Attr(%d)", uint8(a))
}

// Distribution maps global element indices of a 1-D collection to owning
// threads and local indices. Implementations must be pure functions of the
// index so that ownership is identical in the measurement run, the
// simulator, and the direct-execution comparator.
type Distribution interface {
	// Size returns the number of elements.
	Size() int
	// NumThreads returns the number of threads the collection is mapped
	// over (including threads that own nothing).
	NumThreads() int
	// Owner returns the thread owning global index i.
	Owner(i int) int
	// LocalIndex returns i's position within its owner's local sequence.
	LocalIndex(i int) int
	// LocalCount returns how many elements the given thread owns.
	LocalCount(thread int) int
	// Name returns a short human-readable description.
	Name() string
}

// block1D distributes size elements in contiguous blocks of ceil(size/n).
type block1D struct{ size, n, blk int }

// NewBlock returns a 1-D Block distribution of size elements over n threads.
func NewBlock(size, n int) Distribution {
	checkArgs(size, n)
	return block1D{size: size, n: n, blk: ceilDiv(size, n)}
}

func (d block1D) Size() int       { return d.size }
func (d block1D) NumThreads() int { return d.n }
func (d block1D) Owner(i int) int { return i / d.blk }
func (d block1D) LocalIndex(i int) int {
	return i % d.blk
}
func (d block1D) LocalCount(thread int) int {
	lo := thread * d.blk
	if lo >= d.size {
		return 0
	}
	hi := lo + d.blk
	if hi > d.size {
		hi = d.size
	}
	return hi - lo
}
func (d block1D) Name() string { return fmt.Sprintf("Block(%d/%d)", d.size, d.n) }

// cyclic1D deals elements round-robin.
type cyclic1D struct{ size, n int }

// NewCyclic returns a 1-D Cyclic distribution of size elements over n threads.
func NewCyclic(size, n int) Distribution {
	checkArgs(size, n)
	return cyclic1D{size: size, n: n}
}

func (d cyclic1D) Size() int            { return d.size }
func (d cyclic1D) NumThreads() int      { return d.n }
func (d cyclic1D) Owner(i int) int      { return i % d.n }
func (d cyclic1D) LocalIndex(i int) int { return i / d.n }
func (d cyclic1D) LocalCount(thread int) int {
	c := d.size / d.n
	if thread < d.size%d.n {
		c++
	}
	return c
}
func (d cyclic1D) Name() string { return fmt.Sprintf("Cyclic(%d/%d)", d.size, d.n) }

func checkArgs(size, n int) {
	if size < 0 {
		panic(fmt.Sprintf("dist: negative size %d", size))
	}
	if n <= 0 {
		panic(fmt.Sprintf("dist: non-positive thread count %d", n))
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// isqrt returns floor(sqrt(n)) for n ≥ 0.
func isqrt(n int) int {
	if n < 0 {
		panic("dist: isqrt of negative")
	}
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
