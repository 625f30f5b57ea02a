package compose

import (
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
)

// The pcxx lowering: the SPMD program a spec stands for, run by the
// instrumented runtime on cooperative threads. Collections are created
// in Setup, so two instantiations of one spec produce identical traces,
// and every lowered body is barrier-safe by construction: the barrier
// sequence is a function of the tree alone, never of a thread's id.
// Production writes the same trace straight from the spec (synth.go);
// this is the oracle its bytes are tested against.

// oracle instantiates w's lowered program at a size and thread count,
// with the size's N scaling every node's compute magnitude and Iters
// repeating the whole tree, separated by barriers.
func oracle(w *Workload, size benchmarks.Size, threads int) core.Program {
	scale := max(size.N, 1)
	iters := max(size.Iters, 1)
	return core.Program{
		Name:    w.name,
		Threads: threads,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			idx := 0
			body := lowerNode(rt, &w.spec.Root, &idx, scale)
			return func(t *pcxx.Thread) {
				for it := 0; it < iters; it++ {
					if it > 0 {
						t.Barrier()
					}
					body(t)
				}
			}
		},
	}
}

// lowerNode lowers one node, assigning it the next DFS pre-order index
// and recursing into nested nodes. Collections are created here (Setup
// time); the returned closure is the per-thread body.
func lowerNode(rt *pcxx.Runtime, n *Node, idx *int, scale int) func(*pcxx.Thread) {
	id := *idx
	*idx++
	name := fmt.Sprintf("wl%d.%s", id, n.Kind)
	seed := uint64(id+1) * 0x9e3779b97f4a7c15
	msg := int64(n.MessageBytes)
	grain := n.Grain * scale
	imb := n.Imbalance

	switch n.Kind {
	case KindSeq:
		subs := lowerAll(rt, n.Children, idx, scale)
		return func(t *pcxx.Thread) {
			for i, s := range subs {
				if i > 0 {
					t.Barrier()
				}
				s(t)
			}
		}

	case KindPar:
		subs := lowerAll(rt, n.Children, idx, scale)
		return func(t *pcxx.Thread) {
			for _, s := range subs {
				s(t)
			}
		}

	case KindPipeline:
		subs := lowerAll(rt, n.Stages, idx, scale)
		buf := pcxx.PerThread[float64](rt, name, msg)
		return func(t *pcxx.Thread) {
			for si, s := range subs {
				s(t)
				// Stage handoff: publish, fence, read the upstream
				// neighbor's element (remote unless n = 1), fence again
				// so the next stage's writes cannot race ahead.
				*buf.Local(t, t.ID()) = float64(si + t.ID())
				t.Barrier()
				up := (t.ID() + t.N() - 1) % t.N()
				v := buf.Read(t, up)
				t.Flops(1)
				t.Barrier()
				_ = v
			}
		}

	case KindTaskFarm:
		data := pcxx.NewCollection[float64](rt, name, dist.NewCyclic(n.Tasks, rt.Threads()), msg)
		part := pcxx.PerThread[float64](rt, name+".sum", msg)
		return func(t *pcxx.Thread) {
			sum := 0.0
			data.ForOwned(t, func(k int) {
				f := imbFactor(seed, k, imb)
				t.Flops(grainFlops(grain, f))
				*data.Local(t, k) = float64(k) * f
				sum += float64(float64(k) * f)
			})
			*part.Local(t, t.ID()) = sum
			pcxx.ReduceSum(t, part)
		}

	case KindStencil:
		if n.Height == 0 {
			grid := pcxx.NewCollection[float64](rt, name, dist.NewBlock(n.Width, rt.Threads()), msg)
			sweeps, width := n.Sweeps, n.Width
			return func(t *pcxx.Thread) {
				for s := 0; s < sweeps; s++ {
					grid.ForOwned(t, func(i int) {
						l, r := i-1, i+1
						if l < 0 {
							l = 0
						}
						if r >= width {
							r = width - 1
						}
						a := grid.Read(t, l)
						b := grid.Read(t, r)
						t.Flops(grainFlops(grain, imbFactor(seed, i, imb)))
						*grid.Local(t, i) = float64((a+b)/2) + 1
					})
					t.Barrier()
				}
			}
		}
		d2 := dist.NewDist2D(n.Height, n.Width, rt.Threads(), dist.Block, dist.Block)
		grid := pcxx.NewCollection2D[float64](rt, name, d2, msg)
		sweeps, width, height := n.Sweeps, n.Width, n.Height
		return func(t *pcxx.Thread) {
			for s := 0; s < sweeps; s++ {
				grid.ForOwned(t, func(r, c int) {
					up, down, left, right := r-1, r+1, c-1, c+1
					if up < 0 {
						up = 0
					}
					if down >= height {
						down = height - 1
					}
					if left < 0 {
						left = 0
					}
					if right >= width {
						right = width - 1
					}
					v := grid.Read(t, up, c) + grid.Read(t, down, c) +
						grid.Read(t, r, left) + grid.Read(t, r, right)
					t.Flops(grainFlops(grain, imbFactor(seed, r*width+c, imb)))
					*grid.Local(t, r, c) = float64(v/4) + 1
				})
				t.Barrier()
			}
		}

	case KindReduction:
		part := pcxx.PerThread[float64](rt, name, msg)
		flat := n.Op == OpFlat
		return func(t *pcxx.Thread) {
			t.Flops(grainFlops(grain, imbFactor(seed, t.ID(), imb)))
			*part.Local(t, t.ID()) = float64(t.ID() + 1)
			if flat {
				// The flat all-gather: after one barrier every thread
				// reads every partial, n·(n−1) remote reads in all.
				t.Barrier()
				for i := 0; i < t.N(); i++ {
					_ = part.Read(t, i)
				}
				t.Flops(t.N())
				t.Barrier()
			} else {
				pcxx.ReduceSum(t, part)
			}
		}

	case KindBSP:
		buf := pcxx.PerThread[float64](rt, name, msg)
		steps := n.Supersteps
		return func(t *pcxx.Thread) {
			for s := 0; s < steps; s++ {
				t.Flops(grainFlops(grain, imbFactor(seed+uint64(s), t.ID(), imb)))
				*buf.Local(t, t.ID()) = float64(s + t.ID())
				t.Barrier()
				partner := (t.ID() + s + 1) % t.N()
				v := buf.Read(t, partner)
				t.Barrier()
				_ = v
			}
		}
	}
	// Unreachable: validate rejects unknown kinds before lowering.
	panic(fmt.Sprintf("compose: lowering unknown kind %q", n.Kind))
}

// lowerAll lowers a node list in order.
func lowerAll(rt *pcxx.Runtime, nodes []Node, idx *int, scale int) []func(*pcxx.Thread) {
	subs := make([]func(*pcxx.Thread), len(nodes))
	for i := range nodes {
		subs[i] = lowerNode(rt, &nodes[i], idx, scale)
	}
	return subs
}
