package benchmarks

import (
	"math"
	"sync"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
	"extrap/internal/vtime"
)

// Cyclic is the cyclic reduction benchmark: it solves a batch of
// tridiagonal systems by recursively eliminating odd-indexed unknowns
// (log₂ m forward levels) and back-substituting (log₂ m backward levels).
// Each level touches rows at stride 2^k, so communication reaches farther
// neighbors as the computation proceeds — a classic latency-sensitive
// pattern. The batch (Iters independent systems sharing the reduction
// structure) gives each synchronization phase a realistic amount of
// computation, as the original benchmark's problem sizes did.
type Cyclic struct{}

func init() { register(Cyclic{}) }

// Name returns "cyclic".
func (Cyclic) Name() string { return "cyclic" }

// Description matches Table 2.
func (Cyclic) Description() string { return "Cyclic reduction computation" }

// DefaultSize solves a batch of 32 systems of 1024 rows.
func (Cyclic) DefaultSize() Size { return Size{N: 1024, Iters: 32} }

// WorkUnits counts the rows of the input batch and of the rows
// collection: five floats per row of each system, two copies.
func (Cyclic) WorkUnits(sz Size, threads int) int64 {
	return allocWorkUnits(sz, threads, 10*int64(ceilPow2(sz.N))*int64(cyclicBatch(sz)))
}

// cyclicBatch is the number of systems solved together.
func cyclicBatch(sz Size) int {
	if sz.Iters <= 0 {
		return 32
	}
	return sz.Iters
}

// triRow is one row of a tridiagonal system: coefficients, right-hand
// side, and the solution slot.
type triRow struct {
	a, b, c, d, x float64
}

const triRowBytes = 40

// batchRow holds row i of every system in the batch.
type batchRow struct {
	sys []triRow
}

// cyclicSystems builds the deterministic batch: diagonally dominant
// systems, so the reduction is stable.
func cyclicSystems(m, batch int) [][]triRow {
	rng := vtime.NewRand(0xcc11c)
	out := make([][]triRow, batch)
	for b := range out {
		rows := make([]triRow, m)
		for i := range rows {
			rows[i] = triRow{
				a: -1 + float64(0.1*rng.Float64()),
				b: 4 + rng.Float64(),
				c: -1 + float64(0.1*rng.Float64()),
				d: rng.Float64() * 10,
			}
		}
		rows[0].a = 0
		rows[m-1].c = 0
		out[b] = rows
	}
	return out
}

// cyclicReduceSeq runs the whole algorithm sequentially on one system —
// the reference for verification and the source of the update rules.
func cyclicReduceSeq(rows []triRow) {
	m := len(rows)
	for s := 1; s < m; s *= 2 {
		// Snapshot: updates at one level read pre-level neighbor values.
		old := make([]triRow, m)
		copy(old, rows)
		for i := 2*s - 1; i < m; i += 2 * s {
			rows[i] = cyclicForwardUpdate(old[i], neighborRow(old, i-s), neighborRow(old, i+s))
		}
	}
	for s := m; s >= 1; s /= 2 {
		for i := s - 1; i < m; i += 2 * s {
			rows[i].x = cyclicBackUpdate(rows[i], neighborX(rows, i-s), neighborX(rows, i+s))
		}
	}
}

// neighborRow returns rows[i] or a zero row when i is out of range.
func neighborRow(rows []triRow, i int) triRow {
	if i < 0 || i >= len(rows) {
		return triRow{}
	}
	return rows[i]
}

// neighborX returns rows[i].x or 0 when i is out of range.
func neighborX(rows []triRow, i int) float64 {
	if i < 0 || i >= len(rows) {
		return 0
	}
	return rows[i].x
}

// cyclicForwardUpdate eliminates row r's dependence on its stride
// neighbors. Shared verbatim by the parallel program and the reference.
func cyclicForwardUpdate(r, left, right triRow) triRow {
	var alpha, beta float64
	if left.b != 0 {
		alpha = r.a / left.b
	}
	if right.b != 0 {
		beta = r.c / right.b
	}
	return triRow{
		a: -alpha * left.a,
		b: r.b - float64(alpha*left.c) - float64(beta*right.a),
		c: -beta * right.c,
		d: r.d - float64(alpha*left.d) - float64(beta*right.d),
		x: r.x,
	}
}

// cyclicBackUpdate solves for x given the already-known stride-neighbor
// solutions.
func cyclicBackUpdate(r triRow, xLeft, xRight float64) float64 {
	return (r.d - float64(r.a*xLeft) - float64(r.c*xRight)) / r.b
}

// Factory builds the Cyclic program: rows block-distributed, one barrier
// per reduction level. Forward levels read the coefficient part of each
// neighbor batch row; back substitution reads only the solutions.
func (Cyclic) Factory(size Size) core.ProgramFactory {
	m := ceilPow2(size.N)
	batch := cyclicBatch(size)
	// Inputs are built on the first measurement, not per factory: a
	// request whose measurements are all cached never builds them.
	systems := sync.OnceValue(func() [][]triRow { return cyclicSystems(m, batch) })
	return func(threads int) core.Program {
		initial := systems()
		return core.Program{
			Name:    "cyclic",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				rowBytes := int64(batch * triRowBytes)
				rows := pcxx.NewCollection[batchRow](rt, "rows", dist.NewBlock(m, threads), rowBytes)
				// snap is the pre-level snapshot forward levels read. Each
				// snap row aliases the same row of rows instead of copying
				// it: level s writes rows ≡ 2s−1 (mod 2s) and reads rows
				// i±s ≡ s−1 (mod 2s), so no neighbour row a level reads is
				// written during that level (row i itself is read just
				// before it is overwritten), and the alias holds exactly
				// the pre-level values a copy would. The copy's memory
				// traffic is still charged, so the recorded trace is
				// unchanged.
				snap := pcxx.NewCollection[batchRow](rt, "snap", dist.NewBlock(m, threads), rowBytes)
				return func(t *pcxx.Thread) {
					slab := make([]triRow, rows.LocalCount(t)*batch)
					rows.ForOwned(t, func(i int) {
						br := rows.Local(t, i)
						br.sys, slab = slab[:batch:batch], slab[batch:]
						snap.Local(t, i).sys = br.sys
						for b := range br.sys {
							br.sys[b] = initial[b][i]
						}
					})
					t.Mem(rows.LocalCount(t) * batch * triRowBytes * 2)
					t.Barrier()

					// Forward elimination.
					for s := 1; s < m; s *= 2 {
						t.Mem(rows.LocalCount(t) * batch * triRowBytes) // the snapshot
						t.Barrier()
						for i := 2*s - 1; i < m; i += 2 * s {
							if rows.Owner(i) != t.ID() {
								continue
							}
							mine := snap.Local(t, i)
							var left, right *batchRow
							if i-s >= 0 {
								left = snap.ReadPart(t, i-s, int64(batch*32))
							}
							if i+s < m {
								right = snap.ReadPart(t, i+s, int64(batch*32))
							}
							out := rows.Local(t, i)
							for b := 0; b < batch; b++ {
								var l, rr triRow
								if left != nil {
									l = left.sys[b]
								}
								if right != nil {
									rr = right.sys[b]
								}
								out.sys[b] = cyclicForwardUpdate(mine.sys[b], l, rr)
							}
							t.Flops(14 * batch)
						}
						t.Barrier()
					}

					// Back substitution: the deepest level solves the one
					// fully reduced row (m−1); each shallower level solves
					// rows using already-known neighbors at ±s.
					for s := m; s >= 1; s /= 2 {
						for i := s - 1; i < m; i += 2 * s {
							if rows.Owner(i) != t.ID() {
								continue
							}
							var left, right *batchRow
							if i-s >= 0 {
								left = rows.ReadPart(t, i-s, int64(batch*8))
							}
							if i+s < m {
								right = rows.ReadPart(t, i+s, int64(batch*8))
							}
							mine := rows.Local(t, i)
							for b := 0; b < batch; b++ {
								xl, xr := 0.0, 0.0
								if left != nil {
									xl = left.sys[b].x
								}
								if right != nil {
									xr = right.sys[b].x
								}
								mine.sys[b].x = cyclicBackUpdate(mine.sys[b], xl, xr)
							}
							t.Flops(6 * batch)
						}
						t.Barrier()
					}

					if size.Verify {
						fresh := cyclicSystems(m, batch)
						for b := 0; b < batch; b++ {
							ref := make([]triRow, m)
							copy(ref, fresh[b])
							cyclicReduceSeq(ref)
							rows.ForOwned(t, func(i int) {
								got := rows.Local(t, i).sys[b].x
								verifyf(math.Abs(got-ref[i].x) < 1e-9*(1+math.Abs(ref[i].x)),
									"cyclic: system %d x[%d] = %v, want %v", b, i, got, ref[i].x)
							})
						}
					}
				}
			},
		}
	}
}
