package benchmarks

import (
	"math"
	"sync"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// Sparse is the NAS random sparse conjugate gradient benchmark: CG
// iterations on a randomly structured symmetric positive-definite matrix.
// The matrix-vector product reads individual remote vector entries at
// random columns, producing many small latency-bound messages; the dot
// products add log-tree reductions — together the most communication-
// diverse benchmark of the suite.
type Sparse struct{}

func init() { register(Sparse{}) }

// Name returns "sparse".
func (Sparse) Name() string { return "sparse" }

// Description matches Table 2.
func (Sparse) Description() string { return "NAS random sparse conjugate gradient benchmark" }

// DefaultSize runs 20 CG iterations on a 2048-row system.
func (Sparse) DefaultSize() Size { return Size{N: 2048, Iters: 20} }

// vecSeg is one thread's contiguous segment of a distributed vector.
type vecSeg struct {
	v []float64
}

// spEntry is one off-diagonal matrix entry.
type spEntry struct {
	col int
	val float64
}

// spMatrix is the shared sparse matrix: per-row off-diagonal entries plus
// the diagonal. It is generated deterministically and is identical for
// every thread count.
type spMatrix struct {
	n    int
	diag []float64
	rows [][]spEntry
}

// sparseMatrix builds a symmetric diagonally dominant matrix with
// ~edges random off-diagonal pairs.
func sparseMatrix(n int) *spMatrix {
	m := &spMatrix{n: n, diag: make([]float64, n), rows: make([][]spEntry, n)}
	rng := vtime.NewRand(0x5fa25e)
	edges := 3 * n
	for k := 0; k < edges; k++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		v := -rng.Float64()
		m.rows[a] = append(m.rows[a], spEntry{col: b, val: v})
		m.rows[b] = append(m.rows[b], spEntry{col: a, val: v})
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, e := range m.rows[i] {
			sum += math.Abs(e.val)
		}
		m.diag[i] = sum + 1 // strict diagonal dominance ⇒ SPD
	}
	return m
}

// sparseRHS is the deterministic right-hand side.
func sparseRHS(n int) []float64 {
	rng := vtime.NewRand(0xb5)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	return b
}

// segBounds returns thread t's [lo, hi) row range for n rows over the
// given thread count (contiguous blocks, ceil-sized like dist.NewBlock).
func segBounds(n, threads, t int) (lo, hi int) {
	blk := (n + threads - 1) / threads
	lo = t * blk
	hi = lo + blk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// treeDot mirrors the parallel tree reduction's floating-point order so
// the sequential reference matches the parallel run bit for bit: local
// partials in index order, then partner folding by doubling strides.
func treeDot(a, b []float64, threads int) float64 {
	partial := make([]float64, threads)
	for t := 0; t < threads; t++ {
		lo, hi := segBounds(len(a), threads, t)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		partial[t] = s
	}
	for stride := 1; stride < threads; stride *= 2 {
		for t := 0; t+stride < threads; t += 2 * stride {
			partial[t] += partial[t+stride]
		}
	}
	return partial[0]
}

// sparseCGRef runs CG sequentially with the same reduction order the
// parallel program uses; the result matches the parallel solution exactly.
func sparseCGRef(m *spMatrix, b []float64, iters, threads int) []float64 {
	n := m.n
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	q := make([]float64, n)
	rr := treeDot(r, r, threads)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			s := m.diag[i] * p[i]
			for _, e := range m.rows[i] {
				s += e.val * p[e.col]
			}
			q[i] = s
		}
		pq := treeDot(p, q, threads)
		alpha := rr / pq
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rr2 := treeDot(r, r, threads)
		beta := rr2 / rr
		rr = rr2
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	return x
}

// Factory builds the Sparse program: rows and vectors block-distributed,
// remote entry reads during the matvec, tree reductions for the dots.
func (Sparse) Factory(size Size) core.ProgramFactory {
	n := size.N
	iters := size.Iters
	if iters <= 0 {
		iters = 15
	}
	// Inputs are built on the first measurement (see Cyclic.Factory).
	inputs := sync.OnceValues(func() (*spMatrix, []float64) { return sparseMatrix(n), sparseRHS(n) })
	return func(threads int) core.Program {
		mat, rhs := inputs()
		return core.Program{
			Name:    "sparse",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				blk := (n + threads - 1) / threads
				// p is a collection of per-thread segment elements; the
				// matvec gathers the remote entries it needs from each
				// owner in one bulk element read per iteration (the
				// standard sparse-CG gather phase).
				pv := pcxx.PerThread[vecSeg](rt, "p", int64(blk*8))
				partials := pcxx.PerThread[float64](rt, "dot", 8)
				return func(t *pcxx.Thread) {
					lo, hi := segBounds(n, threads, t.ID())
					cnt := hi - lo
					x := make([]float64, cnt)
					r := make([]float64, cnt)
					q := make([]float64, cnt)
					myP := pv.Local(t, t.ID())
					myP.v = make([]float64, cnt)
					for i := 0; i < cnt; i++ {
						r[i] = rhs[lo+i]
						myP.v[i] = rhs[lo+i]
					}
					t.Mem(cnt * 24)

					// needs[o] lists the remote columns owned by thread o
					// that this thread's rows reference.
					needs := make([][]int, threads)
					seen := make(map[int]bool)
					for i := lo; i < hi; i++ {
						for _, e := range mat.rows[i] {
							if (e.col < lo || e.col >= hi) && !seen[e.col] {
								seen[e.col] = true
								o := e.col / blk
								needs[o] = append(needs[o], e.col)
							}
						}
					}
					ghost := make([]float64, n)

					// gather refreshes the ghost entries, one bulk read
					// per remote owner.
					gather := func() {
						for o := 0; o < threads; o++ {
							if len(needs[o]) == 0 {
								continue
							}
							sb := pv.ReadPart(t, o, int64(len(needs[o])*8))
							for _, j := range needs[o] {
								ghost[j] = sb.v[j-o*blk]
							}
							t.Mem(len(needs[o]) * 8)
						}
					}
					readP := func(j int) float64 {
						if j >= lo && j < hi {
							return myP.v[j-lo]
						}
						return ghost[j]
					}
					dot := func(local float64) float64 {
						*partials.Local(t, t.ID()) = local
						return pcxx.AllReduceSum(t, partials)
					}

					localDot := func(a, b []float64) float64 {
						s := 0.0
						for i := range a {
							s += a[i] * b[i]
						}
						t.Flops(2 * len(a))
						return s
					}

					t.Barrier()
					rr := dot(localDot(r, r))
					for it := 0; it < iters; it++ {
						// q = A·p over owned rows; p is stable during the
						// gather and matvec (updated only after the next
						// reduction's barriers).
						t.Phase("gather", gather)
						t.Phase("matvec", func() {
							for i := lo; i < hi; i++ {
								s := mat.diag[i] * myP.v[i-lo]
								for _, e := range mat.rows[i] {
									s += e.val * readP(e.col)
								}
								q[i-lo] = s
								t.Flops(2 * (len(mat.rows[i]) + 1))
							}
						})
						pq := dot(localDot(myP.v, q))
						alpha := rr / pq
						for i := 0; i < cnt; i++ {
							x[i] += alpha * myP.v[i]
							r[i] -= alpha * q[i]
						}
						t.Flops(4 * cnt)
						rr2 := dot(localDot(r, r))
						beta := rr2 / rr
						rr = rr2
						// p update happens after the reduction barrier, so
						// no thread is still reading the old p.
						for i := 0; i < cnt; i++ {
							myP.v[i] = r[i] + beta*myP.v[i]
						}
						t.Flops(2 * cnt)
						t.Barrier()
					}

					if size.Verify {
						ref := sparseCGRef(mat, rhs, iters, threads)
						for i := 0; i < cnt; i++ {
							verifyf(math.Abs(x[i]-ref[lo+i]) < 1e-9*(1+math.Abs(ref[lo+i])),
								"sparse: x[%d] = %v, want %v", lo+i, x[i], ref[lo+i])
						}
						// And the solve genuinely solved the system.
						if t.ID() == 0 {
							res := 0.0
							norm := 0.0
							for i := 0; i < n; i++ {
								s := mat.diag[i] * ref[i]
								for _, e := range mat.rows[i] {
									s += e.val * ref[e.col]
								}
								res += (s - rhs[i]) * (s - rhs[i])
								norm += rhs[i] * rhs[i]
							}
							// CG is run for a fixed iteration budget (it is
							// a benchmark, not a solver), so require solid
							// progress rather than full convergence.
							verifyf(math.Sqrt(res/norm) < 5e-2,
								"sparse: CG made no progress: relative residual %g", math.Sqrt(res/norm))
						}
					}
				}
			},
		}
	}
}
