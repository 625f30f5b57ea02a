package benchmarks

import (
	"math"

	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// Embar is the NAS "embarrassingly parallel" benchmark: generate pairs of
// uniform deviates, keep those inside the unit circle, turn them into
// Gaussian deviates by the polar method, and tally the deviates into
// annular bins. Communication is limited to the final tally reduction, so
// the benchmark is expected to deliver linear speedup on almost any
// platform — which Figure 4 confirms.
type Embar struct{}

func init() { register(Embar{}) }

// Name returns "embar".
func (Embar) Name() string { return "embar" }

// Description matches Table 2.
func (Embar) Description() string { return `NAS "embarrassingly parallel" benchmark` }

// DefaultSize generates 2^17 pairs.
func (Embar) DefaultSize() Size { return Size{N: 17} }

const embarBins = 10

// embarSample deterministically derives the i-th candidate pair from the
// global sample index, so results are independent of the thread count —
// the property the verification relies on.
func embarSample(seed uint64, i int) (x, y float64) {
	r := vtime.NewRand(seed + uint64(i)*0x9e37)
	x = float64(2*r.Float64()) - 1
	y = float64(2*r.Float64()) - 1
	return x, y
}

// embarReference tallies all samples sequentially.
func embarReference(seed uint64, samples int) (counts [embarBins]int64, sx, sy float64) {
	for i := 0; i < samples; i++ {
		x, y := embarSample(seed, i)
		t := float64(x*x) + float64(y*y)
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := float64(x*f), float64(y*f)
		sx += gx
		sy += gy
		m := math.Max(math.Abs(gx), math.Abs(gy))
		b := int(m)
		if b >= embarBins {
			b = embarBins - 1
		}
		counts[b]++
	}
	return counts, sx, sy
}

// Factory builds the Embar program: samples = 2^N split contiguously over
// threads.
func (Embar) Factory(size Size) core.ProgramFactory {
	samples := 1 << size.N
	const seed = 0xe4ba2
	return func(threads int) core.Program {
		return core.Program{
			Name:    "embar",
			Threads: threads,
			Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
				partials := pcxx.PerThread[[embarBins]float64](rt, "tallies", embarBins*8)
				sums := pcxx.PerThread[float64](rt, "sums", 8)
				return func(t *pcxx.Thread) {
					lo := t.ID() * samples / threads
					hi := (t.ID() + 1) * samples / threads
					var counts [embarBins]int64
					var sx, sy float64
					for i := lo; i < hi; i++ {
						x, y := embarSample(seed, i)
						q := float64(x*x) + float64(y*y)
						t.Flops(10) // pair generation + acceptance test
						if q > 1 || q == 0 {
							continue
						}
						f := math.Sqrt(-2 * math.Log(q) / q)
						gx, gy := float64(x*f), float64(y*f)
						sx += gx
						sy += gy
						m := math.Max(math.Abs(gx), math.Abs(gy))
						b := int(m)
						if b >= embarBins {
							b = embarBins - 1
						}
						counts[b]++
						t.Flops(15) // polar transform + binning
					}
					local := partials.Local(t, t.ID())
					for b := 0; b < embarBins; b++ {
						local[b] = float64(counts[b])
					}
					*sums.Local(t, t.ID()) = sx + sy

					// Tally reduction: a binary tree of remote reads, one
					// bin vector per round.
					n := t.N()
					for stride := 1; stride < n; stride *= 2 {
						t.Barrier()
						partner := t.ID() + stride
						if t.ID()%(2*stride) == 0 && partner < n {
							theirs := partials.Read(t, partner)
							mine := partials.Local(t, t.ID())
							for b := 0; b < embarBins; b++ {
								mine[b] += theirs[b]
							}
							*sums.Local(t, t.ID()) += sums.Read(t, partner)
							t.Flops(embarBins + 1)
						}
					}
					t.Barrier()

					if size.Verify && t.ID() == 0 {
						want, wsx, wsy := embarReference(seed, samples)
						got := partials.Local(t, 0)
						for b := 0; b < embarBins; b++ {
							verifyf(got[b] == float64(want[b]),
								"embar: bin %d = %v, want %d", b, got[b], want[b])
						}
						gotSum := *sums.Local(t, 0)
						verifyf(math.Abs(gotSum-(wsx+wsy)) < 1e-6,
							"embar: deviate sum %v, want %v", gotSum, wsx+wsy)
					}
				}
			},
		}
	}
}
