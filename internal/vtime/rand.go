package vtime

// Rand is a deterministic SplitMix64 pseudo-random generator. Every source
// of randomness in the repository (benchmark inputs, NAS EP sample streams,
// perturbation in the direct-execution simulator) derives from a seeded
// Rand so that runs are exactly reproducible. math/rand would also be
// deterministic for a fixed seed, but its sequence is not guaranteed stable
// across Go releases; SplitMix64 is ours and frozen.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). The outer conversion rounds
// the quotient, so no caller it is inlined into can fuse it into a
// multiply-add (see scripts/ci_fma_lint.sh).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("vtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
