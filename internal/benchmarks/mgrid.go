package benchmarks

import (
	"math"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
)

// Mgrid is the NAS multigrid solver benchmark: V-cycles over a hierarchy
// of grids, with weighted-Jacobi smoothing, full-weighting restriction,
// and bilinear prolongation. Coarse levels carry very little computation
// per thread but the same synchronization and boundary-exchange structure,
// so the benchmark's computation/communication ratio collapses as levels
// coarsen — which is why Figure 6 shows Mgrid's speedup reacting strongly
// to MipsRatio and Figure 7 shows its optimal processor count moving with
// communication cost.
type Mgrid struct{}

func init() { register(Mgrid{}) }

// Name returns "mgrid".
func (Mgrid) Name() string { return "mgrid" }

// Description matches Table 2.
func (Mgrid) Description() string { return "NAS multigrid solver benchmark" }

// DefaultSize runs 4 V-cycles on a 64×64 fine grid.
func (Mgrid) DefaultSize() Size { return Size{N: 64, Iters: 4} }

// WorkUnits counts the four fields (u, f, next, r) every level's tiles
// hold.
func (Mgrid) WorkUnits(sz Size, threads int) int64 {
	var floats int64
	for _, e := range mgLevels(sz.N) {
		floats += 4 * int64(e) * int64(e)
	}
	return allocWorkUnits(sz, threads, floats)
}

const (
	mgOmega        = 0.8 // weighted-Jacobi damping
	mgPreSweeps    = 2
	mgPostSweeps   = 1
	mgCoarseSweeps = 10
	mgCoarsest     = 4 // stop coarsening at this grid edge
)

// mgBlock is one thread's tile at one level of the hierarchy.
type mgBlock struct {
	u, f, next, r []float64
	r0, c0        int
	rows, cols    int
}

// mgGeometry describes the level sizes for a fine grid edge g.
func mgLevels(g int) []int {
	var out []int
	for e := g; e >= mgCoarsest; e /= 2 {
		out = append(out, e)
	}
	return out
}

// mgSmoothCell is the weighted-Jacobi update shared (verbatim) by the
// parallel program and the sequential reference so results match exactly.
func mgSmoothCell(cur, up, down, left, right, f float64) float64 {
	return float64((1-mgOmega)*cur) + float64(mgOmega*0.25*(up+down+left+right+f))
}

// mgResidualCell is the shared residual computation r = f − (4u − Σnbr).
func mgResidualCell(u, up, down, left, right, f float64) float64 {
	return f - (float64(4*u) - up - down - left - right)
}

// --- sequential reference ---------------------------------------------------

type mgRefLevel struct {
	g          int
	u, f, next []float64
	r          []float64
}

func mgRefAt(v []float64, g, r, c int) float64 {
	if r < 0 || r >= g || c < 0 || c >= g {
		return 0
	}
	return v[r*g+c]
}

func mgRefSmooth(l *mgRefLevel, sweeps int) {
	for s := 0; s < sweeps; s++ {
		for r := 0; r < l.g; r++ {
			for c := 0; c < l.g; c++ {
				l.next[r*l.g+c] = mgSmoothCell(
					l.u[r*l.g+c],
					mgRefAt(l.u, l.g, r-1, c), mgRefAt(l.u, l.g, r+1, c),
					mgRefAt(l.u, l.g, r, c-1), mgRefAt(l.u, l.g, r, c+1),
					l.f[r*l.g+c])
			}
		}
		l.u, l.next = l.next, l.u
	}
}

func mgRefResidual(l *mgRefLevel) {
	for r := 0; r < l.g; r++ {
		for c := 0; c < l.g; c++ {
			l.r[r*l.g+c] = mgResidualCell(
				l.u[r*l.g+c],
				mgRefAt(l.u, l.g, r-1, c), mgRefAt(l.u, l.g, r+1, c),
				mgRefAt(l.u, l.g, r, c-1), mgRefAt(l.u, l.g, r, c+1),
				l.f[r*l.g+c])
		}
	}
}

// mgRestrictCell is the shared full-weighting stencil.
func mgRestrictCell(at func(r, c int) float64, R, C int) float64 {
	fr, fc := 2*R, 2*C
	return (float64(4*at(fr, fc)) +
		float64(2*(at(fr-1, fc)+at(fr+1, fc)+at(fr, fc-1)+at(fr, fc+1))) +
		at(fr-1, fc-1) + at(fr-1, fc+1) + at(fr+1, fc-1) + at(fr+1, fc+1)) / 16
}

// mgProlongCell is the shared bilinear interpolation of the coarse
// correction at fine cell (r, c).
func mgProlongCell(at func(r, c int) float64, r, c int) float64 {
	R, C := r/2, c/2
	switch {
	case r%2 == 0 && c%2 == 0:
		return at(R, C)
	case r%2 == 1 && c%2 == 0:
		return 0.5 * (at(R, C) + at(R+1, C))
	case r%2 == 0 && c%2 == 1:
		return 0.5 * (at(R, C) + at(R, C+1))
	default:
		return 0.25 * (at(R, C) + at(R+1, C) + at(R, C+1) + at(R+1, C+1))
	}
}

func mgRefVCycle(levels []*mgRefLevel, l int) {
	cur := levels[l]
	if l == len(levels)-1 {
		mgRefSmooth(cur, mgCoarseSweeps)
		return
	}
	mgRefSmooth(cur, mgPreSweeps)
	mgRefResidual(cur)
	coarse := levels[l+1]
	at := func(r, c int) float64 { return mgRefAt(cur.r, cur.g, r, c) }
	for R := 0; R < coarse.g; R++ {
		for C := 0; C < coarse.g; C++ {
			coarse.f[R*coarse.g+C] = mgRestrictCell(at, R, C)
			coarse.u[R*coarse.g+C] = 0
		}
	}
	mgRefVCycle(levels, l+1)
	atU := func(r, c int) float64 { return mgRefAt(coarse.u, coarse.g, r, c) }
	for r := 0; r < cur.g; r++ {
		for c := 0; c < cur.g; c++ {
			cur.u[r*cur.g+c] += mgProlongCell(atU, r, c)
		}
	}
	mgRefSmooth(cur, mgPostSweeps)
}

// mgridReference runs the cycles sequentially and returns the fine u.
func mgridReference(g, cycles int) []float64 {
	sizes := mgLevels(g)
	levels := make([]*mgRefLevel, len(sizes))
	for i, e := range sizes {
		levels[i] = &mgRefLevel{
			g: e,
			u: make([]float64, e*e), f: make([]float64, e*e),
			next: make([]float64, e*e), r: make([]float64, e*e),
		}
	}
	fine := levels[0]
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			fine.f[r*g+c] = gridF(g, r, c)
		}
	}
	for cy := 0; cy < cycles; cy++ {
		mgRefVCycle(levels, 0)
	}
	return fine.u
}

// mgridResidualNorm computes ‖f − A u‖₂ on the fine grid.
func mgridResidualNorm(g int, u []float64) float64 {
	s := 0.0
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			res := mgResidualCell(
				mgRefAt(u, g, r, c),
				mgRefAt(u, g, r-1, c), mgRefAt(u, g, r+1, c),
				mgRefAt(u, g, r, c-1), mgRefAt(u, g, r, c+1),
				gridF(g, r, c))
			s += float64(res * res)
		}
	}
	return math.Sqrt(s)
}

// --- parallel program --------------------------------------------------------

// mgState bundles the per-level collections and geometry.
type mgState struct {
	sizes  []int
	dists  []*dist.Dist2D
	blocks []*pcxx.Collection[mgBlock]
	pr, pc int
}

// Factory builds the Mgrid program.
func (Mgrid) Factory(size Size) core.ProgramFactory {
	g := size.N
	cycles := size.Iters
	if cycles <= 0 {
		cycles = 4
	}
	return func(threads int) core.Program {
		return core.Program{
			Name:    "mgrid",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				st := &mgState{sizes: mgLevels(g)}
				for _, e := range st.sizes {
					d2 := dist.NewDist2D(e, e, threads, dist.Block, dist.Block)
					st.dists = append(st.dists, d2)
					pr, pc := d2.ProcGrid()
					maxTile := ((e + pr - 1) / pr) * ((e + pc - 1) / pc)
					if maxTile < 1 {
						maxTile = 1
					}
					st.blocks = append(st.blocks, pcxx.NewCollection[mgBlock](
						rt, "mg-level", dist.NewBlock(threads, threads), int64(maxTile*8)))
				}
				st.pr, st.pc = st.dists[0].ProcGrid()

				return func(t *pcxx.Thread) {
					// Initialize every level's tile.
					for l, e := range st.sizes {
						b := st.blocks[l].Local(t, t.ID())
						b.rows, b.cols = st.dists[l].TileShape(t.ID())
						pr, pc := st.dists[l].ProcGrid()
						b.r0 = (t.ID() / pc) * ((e + pr - 1) / pr)
						b.c0 = (t.ID() % pc) * ((e + pc - 1) / pc)
						n := b.rows * b.cols
						b.u = make([]float64, n)
						b.f = make([]float64, n)
						b.next = make([]float64, n)
						b.r = make([]float64, n)
						if l == 0 {
							for r := 0; r < b.rows; r++ {
								for c := 0; c < b.cols; c++ {
									b.f[r*b.cols+c] = gridF(e, b.r0+r, b.c0+c)
								}
							}
						}
						t.Mem(n * 32)
					}
					t.Barrier()

					for cy := 0; cy < cycles; cy++ {
						mgVCycle(t, st, 0)
					}

					if size.Verify {
						ref := mgridReference(g, cycles)
						b := st.blocks[0].Local(t, t.ID())
						for r := 0; r < b.rows; r++ {
							for c := 0; c < b.cols; c++ {
								got := b.u[r*b.cols+c]
								want := ref[(b.r0+r)*g+b.c0+c]
								verifyf(math.Abs(got-want) < 1e-12,
									"mgrid: u(%d,%d) = %v, want %v", b.r0+r, b.c0+c, got, want)
							}
						}
						if t.ID() == 0 {
							// The cycles must actually reduce the residual.
							r0 := mgridResidualNorm(g, make([]float64, g*g))
							r1 := mgridResidualNorm(g, ref)
							verifyf(r1 < 0.5*r0,
								"mgrid: V-cycles did not converge: %g → %g", r0, r1)
						}
					}
				}
			},
		}
	}
}

// gatherStrips fetches the four boundary strips adjacent to thread t's
// tile at level l from its processor-grid neighbors: one bulk element
// read per neighbor per sweep (the same access pattern as the Grid
// benchmark). nil strips are physical boundaries (value 0).
func gatherStrips(t *pcxx.Thread, st *mgState, l int, sel func(*mgBlock) []float64) (gUp, gDown, gLeft, gRight []float64) {
	b := st.blocks[l].Local(t, t.ID())
	if b.rows == 0 || b.cols == 0 {
		return nil, nil, nil, nil
	}
	pr, pc := st.dists[l].ProcGrid()
	myRow, myCol := t.ID()/pc, t.ID()%pc
	e := st.sizes[l]
	fetch := func(owner, stripLen int) *mgBlock {
		if owner == t.ID() {
			return st.blocks[l].Local(t, t.ID())
		}
		return st.blocks[l].ReadPart(t, owner, int64(stripLen*8))
	}
	if myRow > 0 && b.r0 > 0 {
		nb := fetch(t.ID()-pc, b.cols)
		gUp = stripRow(sel(nb), nb, nb.rows-1, b.c0, b.cols)
	}
	if myRow < pr-1 && b.r0+b.rows < e {
		nb := fetch(t.ID()+pc, b.cols)
		gDown = stripRow(sel(nb), nb, 0, b.c0, b.cols)
	}
	if myCol > 0 && b.c0 > 0 {
		nb := fetch(t.ID()-1, b.rows)
		gLeft = stripCol(sel(nb), nb, nb.cols-1, b.r0, b.rows)
	}
	if myCol < pc-1 && b.c0+b.cols < e {
		nb := fetch(t.ID()+1, b.rows)
		gRight = stripCol(sel(nb), nb, 0, b.r0, b.rows)
	}
	return gUp, gDown, gLeft, gRight
}

// stripRow copies row lr of the neighbor's field, aligned to the caller's
// column range [c0, c0+cols).
func stripRow(field []float64, nb *mgBlock, lr, c0, cols int) []float64 {
	out := make([]float64, cols)
	for c := 0; c < cols; c++ {
		out[c] = field[lr*nb.cols+(c0+c-nb.c0)]
	}
	return out
}

// stripCol copies column lc of the neighbor's field, aligned to the
// caller's row range [r0, r0+rows).
func stripCol(field []float64, nb *mgBlock, lc, r0, rows int) []float64 {
	out := make([]float64, rows)
	for r := 0; r < rows; r++ {
		out[r] = field[(r0+r-nb.r0)*nb.cols+lc]
	}
	return out
}

// ghostAt indexes the tile-plus-strips view at tile-local coordinates.
func ghostAt(b *mgBlock, field, gUp, gDown, gLeft, gRight []float64, r, c int) float64 {
	switch {
	case r < 0:
		if gUp != nil {
			return gUp[c]
		}
		return 0
	case r >= b.rows:
		if gDown != nil {
			return gDown[c]
		}
		return 0
	case c < 0:
		if gLeft != nil {
			return gLeft[r]
		}
		return 0
	case c >= b.cols:
		if gRight != nil {
			return gRight[r]
		}
		return 0
	default:
		return field[r*b.cols+c]
	}
}

// mgVCycle runs one V-cycle recursion level for thread t.
func mgVCycle(t *pcxx.Thread, st *mgState, l int) {
	if l == len(st.sizes)-1 {
		mgSmooth(t, st, l, mgCoarseSweeps)
		return
	}
	mgSmooth(t, st, l, mgPreSweeps)
	mgResidual(t, st, l)
	mgRestrict(t, st, l)
	mgVCycle(t, st, l+1)
	mgProlong(t, st, l)
	mgSmooth(t, st, l, mgPostSweeps)
}

// mgSmooth runs weighted-Jacobi sweeps at level l, gathering ghost strips
// once per sweep.
func mgSmooth(t *pcxx.Thread, st *mgState, l, sweeps int) {
	b := st.blocks[l].Local(t, t.ID())
	uOf := func(m *mgBlock) []float64 { return m.u }
	for s := 0; s < sweeps; s++ {
		gUp, gDown, gLeft, gRight := gatherStrips(t, st, l, uOf)
		for r := 0; r < b.rows; r++ {
			for c := 0; c < b.cols; c++ {
				at := func(rr, cc int) float64 {
					return ghostAt(b, b.u, gUp, gDown, gLeft, gRight, rr, cc)
				}
				b.next[r*b.cols+c] = mgSmoothCell(
					b.u[r*b.cols+c],
					at(r-1, c), at(r+1, c), at(r, c-1), at(r, c+1),
					b.f[r*b.cols+c])
			}
		}
		t.Flops(b.rows * b.cols * 8)
		t.Barrier()
		b.u, b.next = b.next, b.u
		t.Barrier()
	}
}

// mgResidual fills the level's r field.
func mgResidual(t *pcxx.Thread, st *mgState, l int) {
	b := st.blocks[l].Local(t, t.ID())
	uOf := func(m *mgBlock) []float64 { return m.u }
	gUp, gDown, gLeft, gRight := gatherStrips(t, st, l, uOf)
	for r := 0; r < b.rows; r++ {
		for c := 0; c < b.cols; c++ {
			at := func(rr, cc int) float64 {
				return ghostAt(b, b.u, gUp, gDown, gLeft, gRight, rr, cc)
			}
			b.r[r*b.cols+c] = mgResidualCell(
				b.u[r*b.cols+c],
				at(r-1, c), at(r+1, c), at(r, c-1), at(r, c+1),
				b.f[r*b.cols+c])
		}
	}
	t.Flops(b.rows * b.cols * 7)
	t.Barrier()
}

// tileCache fetches whole remote tiles at a level once per phase; cross-
// level transfers (restriction, prolongation) touch misaligned regions
// that strips cannot cover, so they move tiles in bulk instead.
type tileCache struct {
	t     *pcxx.Thread
	st    *mgState
	l     int
	tiles map[int]*mgBlock
}

func newTileCache(t *pcxx.Thread, st *mgState, l int) *tileCache {
	return &tileCache{t: t, st: st, l: l, tiles: make(map[int]*mgBlock)}
}

// cell returns field sel of cell (r, c) at the cache's level, fetching the
// owning tile at most once.
func (tc *tileCache) cell(sel func(*mgBlock) []float64, r, c int) float64 {
	e := tc.st.sizes[tc.l]
	if r < 0 || r >= e || c < 0 || c >= e {
		return 0
	}
	owner := tc.st.dists[tc.l].OwnerRC(r, c)
	b, ok := tc.tiles[owner]
	if !ok {
		if owner == tc.t.ID() {
			b = tc.st.blocks[tc.l].Local(tc.t, tc.t.ID())
		} else {
			b = tc.st.blocks[tc.l].ReadPart(tc.t, owner, tileBytes(tc.st, tc.l, owner))
		}
		tc.tiles[owner] = b
	}
	return sel(b)[(r-b.r0)*b.cols+(c-b.c0)]
}

// tileBytes returns the byte size of a thread's tile at a level.
func tileBytes(st *mgState, l, owner int) int64 {
	r, c := st.dists[l].TileShape(owner)
	n := int64(r * c * 8)
	if n <= 0 {
		n = 8
	}
	return n
}

// mgRestrict full-weights the fine residual into the coarse f and zeroes
// the coarse u.
func mgRestrict(t *pcxx.Thread, st *mgState, l int) {
	cb := st.blocks[l+1].Local(t, t.ID())
	rOf := func(m *mgBlock) []float64 { return m.r }
	tc := newTileCache(t, st, l)
	fineAt := func(r, c int) float64 { return tc.cell(rOf, r, c) }
	for R := 0; R < cb.rows; R++ {
		for C := 0; C < cb.cols; C++ {
			cb.f[R*cb.cols+C] = mgRestrictCell(fineAt, cb.r0+R, cb.c0+C)
			cb.u[R*cb.cols+C] = 0
		}
	}
	t.Flops(cb.rows * cb.cols * 12)
	t.Barrier()
}

// mgProlong interpolates the coarse correction into the fine u.
func mgProlong(t *pcxx.Thread, st *mgState, l int) {
	fb := st.blocks[l].Local(t, t.ID())
	uOf := func(m *mgBlock) []float64 { return m.u }
	tc := newTileCache(t, st, l+1)
	coarseAt := func(r, c int) float64 { return tc.cell(uOf, r, c) }
	for r := 0; r < fb.rows; r++ {
		for c := 0; c < fb.cols; c++ {
			fb.u[r*fb.cols+c] += mgProlongCell(coarseAt, fb.r0+r, fb.c0+c)
		}
	}
	t.Flops(fb.rows * fb.cols * 5)
	t.Barrier()
}
