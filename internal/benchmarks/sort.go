package benchmarks

import (
	"math"
	"sort"
	"sync"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// Sort is the bitonic sort module: each thread holds a locally sorted
// block of keys, and log²(n) compare-exchange stages between partner
// threads (at hypercube distances) produce a globally sorted sequence.
// Every stage reads the partner's entire block, so communication volume
// per stage is high and fixed — the benchmark stresses bandwidth rather
// than latency.
type Sort struct{}

func init() { register(Sort{}) }

// Name returns "sort".
func (Sort) Name() string { return "sort" }

// Description matches Table 2.
func (Sort) Description() string { return "Bitonic sort module" }

// DefaultSize sorts 65536 keys.
func (Sort) DefaultSize() Size { return Size{N: 65536} }

// keyBlock is one thread's slice of the key space.
type keyBlock struct {
	keys []float64
}

// sortKeys deterministically generates the unsorted input.
func sortKeys(total int) []float64 {
	rng := vtime.NewRand(0x50f7)
	out := make([]float64, total)
	for i := range out {
		out[i] = rng.Float64() * 1e6
	}
	return out
}

// Factory builds the bitonic sort program. The thread count must be a
// power of two (the bitonic network's requirement; all experiment ladders
// use powers of two).
func (Sort) Factory(size Size) core.ProgramFactory {
	total := ceilPow2(size.N)
	// The keys are built on the first measurement (see Cyclic.Factory).
	keys := sync.OnceValue(func() []float64 { return sortKeys(total) })
	return func(threads int) core.Program {
		input := keys()
		return core.Program{
			Name:    "sort",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				m := total / threads
				blocks := pcxx.PerThread[keyBlock](rt, "blocks", int64(m*8))
				return func(t *pcxx.Thread) {
					verifyf(isPow2(threads), "sort: thread count %d is not a power of two", threads)
					id := t.ID()
					mine := blocks.Local(t, id)
					mine.keys = make([]float64, m)
					copy(mine.keys, input[id*m:(id+1)*m])
					// The merge-split writes into spare and swaps it in,
					// leaving the old block intact for the partner whose
					// pre-barrier snapshot still points at it.
					spare := make([]float64, m)
					// Local sort, charged as ~m·log₂(m) comparison work;
					// the host sorts by radix with spare as scratch.
					radixSortFloat64s(mine.keys, spare)
					t.Ops(m * log2int(m) * 3)
					t.Barrier()

					// Bitonic merge network over blocks. Each stage first
					// snapshots the partner's block (a barrier separates
					// the reads from the updates so every thread sees
					// pre-stage values), then merge-splits in place.
					for k := 2; k <= threads; k <<= 1 {
						for j := k >> 1; j >= 1; j >>= 1 {
							partner := id ^ j
							theirs := blocks.Read(t, partner) // whole block
							t.Barrier()
							ascending := id&k == 0
							keepLow := (id < partner) == ascending
							mergeKeep(spare, mine.keys, theirs.keys, keepLow)
							mine.keys, spare = spare, mine.keys
							t.Ops(2 * m)
							t.Mem(2 * m * 8)
							t.Barrier()
						}
					}

					if size.Verify {
						ref := make([]float64, total)
						copy(ref, input)
						sort.Float64s(ref)
						for i, k := range mine.keys {
							verifyf(k == ref[id*m+i],
								"sort: thread %d key %d = %v, want %v", id, i, k, ref[id*m+i])
						}
					}
				}
			},
		}
	}
}

// mergeKeep merges two sorted blocks of len(out) keys and writes the
// lower or upper half of the merge into out, still sorted ascending: the
// lower half merges from the front, the upper half from the back. out
// must not alias a or b.
func mergeKeep(out, a, b []float64, low bool) {
	if low {
		i, j := 0, 0
		for k := range out {
			if j == len(b) || (i < len(a) && a[i] <= b[j]) {
				out[k] = a[i]
				i++
			} else {
				out[k] = b[j]
				j++
			}
		}
		return
	}
	i, j := len(a)-1, len(b)-1
	for k := len(out) - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i] > b[j]) {
			out[k] = a[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
}

// radixSortFloat64s sorts keys ascending into the order sort.Float64s
// gives keys that are not NaN, using scratch (at least len(keys) long)
// as its second buffer; len(keys) must be below 2³². It is an LSD radix
// sort over order-preserving bits: a key's IEEE bits with the sign bit
// flipped if it is positive, and every bit flipped if it is negative,
// compare as unsigned integers in the keys' numeric order. Digits are 8
// bits, least significant first; a digit every key shares is skipped.
func radixSortFloat64s(keys, scratch []float64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var counts [8][256]uint32
	for _, k := range keys {
		u := sortableBits(k)
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
		counts[4][byte(u>>32)]++
		counts[5][byte(u>>40)]++
		counts[6][byte(u>>48)]++
		counts[7][byte(u>>56)]++
	}
	first := sortableBits(keys[0])
	src, dst := keys, scratch[:n]
	for d := range counts {
		c, shift := &counts[d], uint(8*d)
		if int(c[byte(first>>shift)]) == n {
			continue
		}
		var sum uint32
		for i, v := range c {
			c[i], sum = sum, sum+v
		}
		for _, k := range src {
			b := byte(sortableBits(k) >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// sortableBits maps a float64 to a uint64 whose unsigned order is the
// float's numeric order (-0 sorts just before +0).
func sortableBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// log2int returns floor(log2(n)) for n ≥ 1.
func log2int(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
