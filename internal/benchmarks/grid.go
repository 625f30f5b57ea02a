package benchmarks

import (
	"math"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
)

// Grid solves the Poisson equation on a two-dimensional G×G grid with
// Jacobi sweeps. The grid is distributed (BLOCK,BLOCK): each used thread
// owns one rectangular tile (a collection element, as in the pC++ code
// whose 231456-byte grid elements the paper discusses), and each sweep
// reads one boundary strip from each of the four tile neighbors.
//
// Grid is the paper's Figure 5 case study: under CompilerEstimate size
// attribution each ghost-strip read is charged as a whole-element
// transfer, grossly overstating communication volume; ActualSize
// attribution records the true strip sizes (hundreds of bytes).
// The (BLOCK,BLOCK) square processor grid also idles threads when the
// thread count is not a perfect square — the 4→8 plateau of Figure 4.
// Ceil-sized blocks can leave the last processor rows or columns with an
// empty tile (16 rows over 5 processor rows is 4+4+4+4+0); such threads
// idle too, and their edge is a physical boundary to their neighbours.
type Grid struct{}

func init() { register(Grid{}) }

// Name returns "grid".
func (Grid) Name() string { return "grid" }

// Description matches Table 2.
func (Grid) Description() string { return "Poisson equation on a two dimensional grid" }

// DefaultSize runs 324 Jacobi sweeps on a 64×64 grid — two barriers per
// sweep plus the setup barriers ≈ the 650 barriers the paper's trace
// statistics report for Grid.
func (Grid) DefaultSize() Size { return Size{N: 64, Iters: 324} }

// WorkUnits counts the cur and next tiles, which cover the grid twice,
// and each thread's two column-strip buffers.
func (Grid) WorkUnits(sz Size, threads int) int64 {
	g := int64(sz.N)
	return allocWorkUnits(sz, threads, 2*g*g+2*g*int64(threads))
}

// gridBlock is one thread's tile of the solution grid: current and next
// Jacobi buffers plus its geometry.
type gridBlock struct {
	cur, next  []float64
	r0, c0     int // global position of the tile's top-left cell
	rows, cols int
}

// gridF is the Poisson right-hand side: a unit point source at the grid
// center.
func gridF(g, r, c int) float64 {
	if r == g/2 && c == g/2 {
		return 1
	}
	return 0
}

// gridReference runs the same Jacobi iteration sequentially.
func gridReference(g, iters int) []float64 {
	cur := make([]float64, g*g)
	next := make([]float64, g*g)
	at := func(u []float64, r, c int) float64 {
		if r < 0 || r >= g || c < 0 || c >= g {
			return 0
		}
		return u[r*g+c]
	}
	for it := 0; it < iters; it++ {
		for r := 0; r < g; r++ {
			for c := 0; c < g; c++ {
				next[r*g+c] = 0.25 * (at(cur, r-1, c) + at(cur, r+1, c) +
					at(cur, r, c-1) + at(cur, r, c+1) + gridF(g, r, c))
			}
		}
		cur, next = next, cur
	}
	return cur
}

// Factory builds the Grid program.
func (Grid) Factory(size Size) core.ProgramFactory {
	g := size.N
	iters := size.Iters
	if iters <= 0 {
		iters = 100
	}
	return func(threads int) core.Program {
		return core.Program{
			Name:    "grid",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				cells := dist.NewDist2D(g, g, threads, dist.Block, dist.Block)
				pr, pc := cells.ProcGrid()
				maxTile := ((g + pr - 1) / pr) * ((g + pc - 1) / pc)
				// One block element per thread; the compiler-estimated
				// element transfer size is the whole tile.
				blocks := pcxx.NewCollection[gridBlock](rt, "blocks",
					dist.NewBlock(threads, threads), int64(maxTile*8))

				return func(t *pcxx.Thread) {
					used := ownsTile(cells, t.ID())
					var me *gridBlock
					if used {
						me = blocks.Local(t, t.ID())
						me.rows, me.cols = cells.TileShape(t.ID())
						me.r0 = (t.ID() / pc) * ((g + pr - 1) / pr)
						me.c0 = (t.ID() % pc) * ((g + pc - 1) / pc)
						me.cur = make([]float64, me.rows*me.cols)
						me.next = make([]float64, me.rows*me.cols)
						t.Mem(me.rows * me.cols * 16)
					}
					t.Barrier()

					myRow, myCol := t.ID()/pc, t.ID()%pc
					// Column strips are gathered into these buffers; a
					// tile's row neighbours share its row count.
					var leftCol, rightCol []float64
					if used {
						leftCol = make([]float64, me.rows)
						rightCol = make([]float64, me.rows)
					}
					for it := 0; it < iters; it++ {
						if used {
							// Gather ghost strips from the four tile
							// neighbors; the actual transfer is one strip.
							// Row strips are views of the neighbor's cur,
							// which no thread writes before the swap
							// barrier.
							var gUp, gDown, gLeft, gRight []float64
							t.Phase("exchange", func() {
								up := t.ID() - pc
								down := t.ID() + pc
								left := t.ID() - 1
								right := t.ID() + 1
								if myRow > 0 && ownsTile(cells, up) {
									nb := blocks.ReadPart(t, up, int64(me.cols*8))
									gUp = nb.cur[(nb.rows-1)*nb.cols:]
								}
								if myRow < pr-1 && ownsTile(cells, down) {
									nb := blocks.ReadPart(t, down, int64(me.cols*8))
									gDown = nb.cur[:nb.cols]
								}
								if myCol > 0 && ownsTile(cells, left) {
									nb := blocks.ReadPart(t, left, int64(me.rows*8))
									gLeft = gatherCol(leftCol, nb, nb.cols-1)
								}
								if myCol < pc-1 && ownsTile(cells, right) {
									nb := blocks.ReadPart(t, right, int64(me.rows*8))
									gRight = gatherCol(rightCol, nb, 0)
								}
							})
							t.Phase("update", func() {
								jacobiSweep(t, me, g, gUp, gDown, gLeft, gRight)
							})
						}
						t.Barrier()
						if used {
							me.cur, me.next = me.next, me.cur
						}
						t.Barrier()
					}

					if size.Verify && used {
						ref := gridReference(g, iters)
						for r := 0; r < me.rows; r++ {
							for c := 0; c < me.cols; c++ {
								got := me.cur[r*me.cols+c]
								want := ref[(me.r0+r)*g+me.c0+c]
								verifyf(math.Abs(got-want) < 1e-12,
									"grid: cell (%d,%d) = %v, want %v", me.r0+r, me.c0+c, got, want)
							}
						}
					}
				}
			},
		}
	}
}

// ownsTile reports whether thread id has a non-empty tile of cells.
func ownsTile(cells *dist.Dist2D, id int) bool {
	r, c := cells.TileShape(id)
	return r > 0 && c > 0
}

// jacobiSweep computes one Jacobi update of the tile using the supplied
// ghost strips (nil means a physical boundary, value 0).
func jacobiSweep(t *pcxx.Thread, me *gridBlock, g int, gUp, gDown, gLeft, gRight []float64) {
	at := func(r, c int) float64 {
		switch {
		case r < 0:
			if gUp != nil {
				return gUp[c]
			}
			return 0
		case r >= me.rows:
			if gDown != nil {
				return gDown[c]
			}
			return 0
		case c < 0:
			if gLeft != nil {
				return gLeft[r]
			}
			return 0
		case c >= me.cols:
			if gRight != nil {
				return gRight[r]
			}
			return 0
		default:
			return me.cur[r*me.cols+c]
		}
	}
	for r := 0; r < me.rows; r++ {
		for c := 0; c < me.cols; c++ {
			me.next[r*me.cols+c] = 0.25 * (at(r-1, c) + at(r+1, c) +
				at(r, c-1) + at(r, c+1) + gridF(g, me.r0+r, me.c0+c))
		}
	}
	t.Flops(me.rows * me.cols * 6)
}

// gatherCol copies column c of b's cur into dst (len b.rows) and
// returns it.
func gatherCol(dst []float64, b *gridBlock, c int) []float64 {
	for r := range dst {
		dst[r] = b.cur[r*b.cols+c]
	}
	return dst
}
