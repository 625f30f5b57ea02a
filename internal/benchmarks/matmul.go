package benchmarks

import (
	"fmt"
	"math"
	"sync"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
	"extrap/internal/vtime"
)

// Matmul is the validation program of Section 4.2: C = A·B with B given in
// transposed form, computed exactly as the paper describes — for every row
// r of Bᵀ, broadcast that row across a temporary matrix T, multiply
// pointwise with A into S, then reduce each row of S right-to-left to
// produce column r of the result. A, Bᵀ, T, and S all share one
// two-dimensional distribution chosen from the per-dimension attributes
// {Block, Cyclic, Whole}², giving the nine combinations of Figure 9 whose
// relative performance the extrapolation must rank correctly.
type Matmul struct{}

func init() { register(Matmul{}) }

// Name returns "matmul".
func (Matmul) Name() string { return "matmul" }

// Description matches Section 4.2.
func (Matmul) Description() string { return "Matrix multiplication validation program (Section 4.2)" }

// DefaultSize multiplies 32×32 matrices with the (Block,Block)
// distribution.
func (Matmul) DefaultSize() Size { return Size{N: 32, Verify: true} }

// WorkUnits counts eight n×n matrices: the inputs A and Bᵀ, the
// collections A, BT, T, S and C, and the verification reference.
func (Matmul) WorkUnits(sz Size, threads int) int64 {
	n := int64(sz.N)
	return allocWorkUnits(sz, threads, 8*n*n)
}

// Factory builds the default (Block,Block) variant.
func (Matmul) Factory(size Size) core.ProgramFactory {
	return MatmulFactory(size, dist.Block, dist.Block)
}

// matmulInput deterministically fills A and Bᵀ.
func matmulInput(n int) (a, bt []float64) {
	rng := vtime.NewRand(0x3a73)
	a = make([]float64, n*n)
	bt = make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64() - 0.5
		bt[i] = rng.Float64() - 0.5
	}
	return a, bt
}

// blockColSegs derives the column segments of a distribution: the sets of
// columns owned by each processor column, as contiguous runs for Block
// and Whole. For Cyclic columns the "segment" per processor column is its
// strided set; the parallel program and the reference both iterate it in
// ascending column order.
func colSegsFor(d2 *dist.Dist2D, n int) [][]int {
	_, pc := d2.ProcGrid()
	segs := make([][]int, pc)
	for j := 0; j < n; j++ {
		q := d2.OwnerRC(0, j) % pc
		segs[q] = append(segs[q], j)
	}
	return segs
}

// MatmulFactory builds the Matmul program for one distribution
// combination — the entry point the Figure 9 experiment sweeps.
func MatmulFactory(size Size, rowAttr, colAttr dist.Attr) core.ProgramFactory {
	n := size.N
	// Inputs are built on the first measurement (see Cyclic.Factory).
	inputs := sync.OnceValues(func() ([]float64, []float64) { return matmulInput(n) })
	return func(threads int) core.Program {
		a, bt := inputs()
		return core.Program{
			Name:    fmt.Sprintf("matmul(%s,%s)", rowAttr, colAttr),
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				d2 := dist.NewDist2D(n, n, threads, rowAttr, colAttr)
				_, pc := d2.ProcGrid()
				A := pcxx.NewCollection2D[float64](rt, "A", d2, 8)
				BT := pcxx.NewCollection2D[float64](rt, "BT", d2, 8)
				T := pcxx.NewCollection2D[float64](rt, "T", d2, 8)
				S := pcxx.NewCollection2D[float64](rt, "S", d2, 8)
				C := pcxx.NewCollection2D[float64](rt, "C", d2, 8)
				// partials: per-thread vectors of right-to-left running
				// sums, one slot per row of the thread's processor row.
				// The fold moves whole vectors (one element transfer per
				// step), as a pC++ collection of vector elements would.
				partials := pcxx.PerThread[pvec](rt, "partials", int64(n*8))

				segs := colSegsFor(d2, n)

				return func(t *pcxx.Thread) {
					A.ForOwned(t, func(r, c int) { *A.Local(t, r, c) = a[r*n+c] })
					BT.ForOwned(t, func(r, c int) { *BT.Local(t, r, c) = bt[r*n+c] })
					t.Mem(d2.LocalCount(t.ID()) * 16)
					t.Barrier()

					// The thread's tile is the cartesian product of its
					// row set and column set (all four matrices aligned).
					var myRows, myCols []int
					if t.ID() < d2.UsedThreads() {
						for i := 0; i < n; i++ {
							if d2.OwnerRC(i, 0)/pc == t.ID()/pc {
								myRows = append(myRows, i)
							}
						}
						for j := 0; j < n; j++ {
							if d2.OwnerRC(0, j)%pc == t.ID()%pc {
								myCols = append(myCols, j)
							}
						}
					}
					myQ := t.ID() % pc
					if len(myRows) > 0 {
						partials.Local(t, t.ID()).vals = make([]float64, len(myRows))
					}
					t.Barrier()

					for r := 0; r < n; r++ {
						// Broadcast row r of Bᵀ into T: each owner fetches
						// Bᵀ(r,j) once per owned column (the runtime's
						// per-invocation remote element cache) and fills
						// its column of T.
						for _, j := range myCols {
							v := BT.Read(t, r, j)
							for _, i := range myRows {
								*T.Local(t, i, j) = v
							}
						}
						t.Ops(d2.LocalCount(t.ID()))
						t.Barrier()

						// Pointwise multiply into S (all aligned, local).
						S.ForOwned(t, func(i, j int) {
							*S.Local(t, i, j) = A.Read(t, i, j) * T.Read(t, i, j)
						})
						t.Flops(d2.LocalCount(t.ID()))
						t.Barrier()

						// Local segment sums into the partial vector.
						if len(myRows) > 0 {
							mv := partials.Local(t, t.ID())
							for k, i := range myRows {
								s := 0.0
								for _, j := range segs[myQ] {
									s += S.Read(t, i, j)
								}
								mv.vals[k] = s
								t.Flops(len(segs[myQ]))
							}
						}
						t.Barrier()

						// Right-to-left fold across processor columns: at
						// each step, column q absorbs column q+1's whole
						// partial vector in one transfer. Columns that own
						// no matrix columns still pass the chain through.
						for q := pc - 2; q >= 0; q-- {
							if myQ == q && len(myRows) > 0 {
								nb := partials.ReadPart(t, t.ID()+1, int64(len(myRows)*8))
								mv := partials.Local(t, t.ID())
								for k := range myRows {
									mv.vals[k] += nb.vals[k]
								}
								t.Flops(len(myRows))
							}
							t.Barrier()
						}

						// Column r of the result: its owners fetch the
						// folded vector from processor column 0.
						if containsInt(myCols, r) {
							col0 := t.ID() - myQ
							var nb *pvec
							if col0 == t.ID() {
								nb = partials.Local(t, t.ID())
							} else {
								nb = partials.ReadPart(t, col0, int64(len(myRows)*8))
							}
							for k, i := range myRows {
								*C.Local(t, i, r) = nb.vals[k]
							}
						}
						t.Barrier()
					}

					if size.Verify {
						ref := matmulRefStrided(n, a, bt, segs)
						C.ForOwned(t, func(i, j int) {
							got := *C.Local(t, i, j)
							want := ref[i*n+j]
							verifyf(math.Abs(got-want) < 1e-9*(1+math.Abs(want)),
								"matmul: C(%d,%d) = %v, want %v", i, j, got, want)
						})
					}
				}
			},
		}
	}
}

// matmulRefStrided computes the reference result with the exact summation
// order of the parallel fold: per-segment sums in ascending column order,
// folded right-to-left across processor columns.
func matmulRefStrided(n int, a, bt []float64, segs [][]int) []float64 {
	c := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for i := 0; i < n; i++ {
			partial := make([]float64, len(segs))
			for q := range segs {
				s := 0.0
				for _, j := range segs[q] {
					s += float64(a[i*n+j] * bt[r*n+j])
				}
				partial[q] = s
			}
			for q := len(segs) - 2; q >= 0; q-- {
				partial[q] += partial[q+1]
			}
			c[i*n+r] = partial[0]
		}
	}
	return c
}

// pvec is a per-thread vector of row partial sums.
type pvec struct {
	vals []float64
}

// containsInt reports whether xs contains v.
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
