package benchmarks

import (
	"math"
	"sync"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// Poisson is the fast Poisson solver benchmark: a discrete sine transform
// along one dimension diagonalizes the 2-D Laplacian, leaving independent
// tridiagonal systems along the other dimension. The structure is
// transform (local, compute-heavy) → transpose (all-to-all) → tridiagonal
// solves (local) → transpose → inverse transform (local): large local
// compute phases separated by two bulk communication steps, giving the
// benchmark good speedup until the transposes dominate (Figure 4 and the
// 32-processor knee in Figure 6).
type Poisson struct{}

func init() { register(Poisson{}) }

// Name returns "poisson".
func (Poisson) Name() string { return "poisson" }

// Description matches Table 2.
func (Poisson) Description() string { return "Fast Poisson solver" }

// DefaultSize solves on a 48×48 grid.
func (Poisson) DefaultSize() Size { return Size{N: 48} }

// rowBlock is one thread's block of matrix rows.
type rowBlock struct {
	rows [][]float64
	lo   int // first global row index
}

// poissonRHS builds the right-hand side grid.
func poissonRHS(g int) []float64 {
	rng := vtime.NewRand(0x9015)
	f := make([]float64, g*g)
	for i := range f {
		f[i] = rng.Float64() - 0.5
	}
	return f
}

// dstBasis tabulates the g×g DST-I basis, basis[k*g+j] =
// sin(π(j+1)(k+1)/(g+1)). The table is host-side bookkeeping: the cost
// model charges each transform its full 3g² flops either way.
func dstBasis(g int) []float64 {
	basis := make([]float64, g*g)
	for k := 0; k < g; k++ {
		for j := 0; j < g; j++ {
			basis[k*g+j] = math.Sin(math.Pi * float64((j+1)*(k+1)) / float64(g+1))
		}
	}
	return basis
}

// dstRow computes the (unnormalized) DST-I of a row against its basis:
// out[k] = Σ_j in[j]·basis[k*g+j]. Shared by the parallel program and the
// reference.
func dstRow(in, basis []float64) []float64 {
	g := len(in)
	out := make([]float64, g)
	for k := range out {
		row := basis[k*g : (k+1)*g]
		s := 0.0
		for j, x := range in {
			s += x * row[j]
		}
		out[k] = s
	}
	return out
}

// poissonTridiag solves (2+λ)u_r − u_{r−1} − u_{r+1} = d_r by the Thomas
// algorithm. Shared code path for parallel and reference.
func poissonTridiag(lambda float64, d []float64) []float64 {
	g := len(d)
	b := 2 + lambda
	cp := make([]float64, g)
	dp := make([]float64, g)
	cp[0] = -1 / b
	dp[0] = d[0] / b
	for i := 1; i < g; i++ {
		m := b + cp[i-1]
		cp[i] = -1 / m
		dp[i] = (d[i] + dp[i-1]) / m
	}
	u := make([]float64, g)
	u[g-1] = dp[g-1]
	for i := g - 2; i >= 0; i-- {
		u[i] = dp[i] - cp[i]*u[i+1]
	}
	return u
}

// poissonReference solves the whole problem sequentially with the same
// transform and solve kernels.
func poissonReference(g int, f, basis []float64) [][]float64 {
	// Transform rows.
	ft := make([][]float64, g)
	for r := 0; r < g; r++ {
		ft[r] = dstRow(f[r*g:(r+1)*g], basis)
	}
	// Solve per transformed column k.
	ut := make([][]float64, g)
	for r := range ut {
		ut[r] = make([]float64, g)
	}
	for k := 0; k < g; k++ {
		lambda := 2 - 2*math.Cos(math.Pi*float64(k+1)/float64(g+1))
		d := make([]float64, g)
		for r := 0; r < g; r++ {
			d[r] = ft[r][k]
		}
		u := poissonTridiag(lambda, d)
		for r := 0; r < g; r++ {
			ut[r][k] = u[r]
		}
	}
	// Inverse transform rows (DST-I scaled by 2/(g+1)).
	out := make([][]float64, g)
	scale := 2 / float64(g+1)
	for r := 0; r < g; r++ {
		row := dstRow(ut[r], basis)
		for c := range row {
			row[c] *= scale
		}
		out[r] = row
	}
	return out
}

// Factory builds the Poisson program: rows block-distributed; the
// transpose reads every other thread's row block once (bulk all-to-all).
func (Poisson) Factory(size Size) core.ProgramFactory {
	g := size.N
	// Inputs are built on the first measurement (see Cyclic.Factory).
	inputs := sync.OnceValues(func() ([]float64, []float64) { return poissonRHS(g), dstBasis(g) })
	return func(threads int) core.Program {
		f, basis := inputs()
		return core.Program{
			Name:    "poisson",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				blk := (g + threads - 1) / threads
				blockBytes := int64(blk * g * 8)
				fwd := pcxx.PerThread[rowBlock](rt, "fwd", blockBytes)  // transformed rows
				colb := pcxx.PerThread[rowBlock](rt, "col", blockBytes) // transposed (column-major)
				sol := pcxx.PerThread[rowBlock](rt, "sol", blockBytes)  // solved, still transposed
				return func(t *pcxx.Thread) {
					lo, hi := segBounds(g, threads, t.ID())
					cnt := hi - lo

					// Phase 1: DST of owned rows (local, O(g²) per row).
					mine := fwd.Local(t, t.ID())
					t.Phase("dst", func() {
						mine.lo = lo
						mine.rows = make([][]float64, cnt)
						for r := 0; r < cnt; r++ {
							mine.rows[r] = dstRow(f[(lo+r)*g:(lo+r+1)*g], basis)
							t.Flops(3 * g * g) // g output entries × g terms
						}
					})
					t.Barrier()

					// Phase 2: transpose — read each source thread's block
					// once and scatter locally. k-rows [lo,hi) of the
					// transposed matrix are owned here.
					me2 := colb.Local(t, t.ID())
					me2.lo = lo
					me2.rows = make([][]float64, cnt)
					for k := 0; k < cnt; k++ {
						me2.rows[k] = make([]float64, g)
					}
					for src := 0; src < threads; src++ {
						var sb *rowBlock
						if src == t.ID() {
							sb = mine
						} else {
							slo, shi := segBounds(g, threads, src)
							sb = fwd.ReadPart(t, src, int64((shi-slo)*cnt*8))
						}
						for r := range sb.rows {
							for k := 0; k < cnt; k++ {
								me2.rows[k][sb.lo+r] = sb.rows[r][lo+k]
							}
						}
						t.Mem(len(sb.rows) * cnt * 8)
					}
					t.Barrier()

					// Phase 3: tridiagonal solves for owned k.
					ms := sol.Local(t, t.ID())
					ms.lo = lo
					ms.rows = make([][]float64, cnt)
					for k := 0; k < cnt; k++ {
						lambda := 2 - 2*math.Cos(math.Pi*float64(lo+k+1)/float64(g+1))
						ms.rows[k] = poissonTridiag(lambda, me2.rows[k])
						t.Flops(8 * g)
					}
					t.Barrier()

					// Phase 4: transpose back.
					back := make([][]float64, cnt)
					for r := 0; r < cnt; r++ {
						back[r] = make([]float64, g)
					}
					for src := 0; src < threads; src++ {
						var sb *rowBlock
						if src == t.ID() {
							sb = ms
						} else {
							slo, shi := segBounds(g, threads, src)
							sb = sol.ReadPart(t, src, int64((shi-slo)*cnt*8))
						}
						for k := range sb.rows {
							for r := 0; r < cnt; r++ {
								back[r][sb.lo+k] = sb.rows[k][lo+r]
							}
						}
						t.Mem(len(sb.rows) * cnt * 8)
					}
					t.Barrier()

					// Phase 5: inverse DST of owned rows.
					scale := 2 / float64(g+1)
					result := make([][]float64, cnt)
					for r := 0; r < cnt; r++ {
						row := dstRow(back[r], basis)
						for c := range row {
							row[c] *= scale
						}
						result[r] = row
						t.Flops(3*g*g + g)
					}
					t.Barrier()

					if size.Verify {
						ref := poissonReference(g, f, basis)
						for r := 0; r < cnt; r++ {
							for c := 0; c < g; c++ {
								got := result[r][c]
								want := ref[lo+r][c]
								verifyf(math.Abs(got-want) < 1e-9*(1+math.Abs(want)),
									"poisson: u(%d,%d) = %v, want %v", lo+r, c, got, want)
							}
						}
						if t.ID() == 0 {
							// The solution must satisfy the discrete
							// Poisson equation 4u − Σnbr = f.
							maxErr := 0.0
							for r := 0; r < g; r++ {
								for c := 0; c < g; c++ {
									at := func(rr, cc int) float64 {
										if rr < 0 || rr >= g || cc < 0 || cc >= g {
											return 0
										}
										return ref[rr][cc]
									}
									lap := 4*at(r, c) - at(r-1, c) - at(r+1, c) - at(r, c-1) - at(r, c+1)
									if e := math.Abs(lap - f[r*g+c]); e > maxErr {
										maxErr = e
									}
								}
							}
							verifyf(maxErr < 1e-8, "poisson: PDE residual %g", maxErr)
						}
					}
				}
			},
		}
	}
}
