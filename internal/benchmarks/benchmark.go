// Package benchmarks implements the pC++ benchmark suite the paper's
// experiments run (Table 2) — Embar, Cyclic, Sparse, Grid, Mgrid,
// Poisson, and Sort — plus the Matmul validation program of Section 4.2,
// all written against the pcxx runtime.
//
// Every benchmark performs its real computation (so results can be
// verified against sequential references) while charging the measurement
// host's cost model, and communicates only through collection reads and
// barriers, so its traces drive the extrapolation exactly as user programs
// drove ExtraP.
package benchmarks

import (
	"errors"
	"fmt"
	"sort"

	"extrap/internal/core"
)

// Size parameterizes a benchmark instance.
type Size struct {
	// N is the problem dimension; its meaning is benchmark-specific
	// (sample count exponent, system size, grid edge, key count, matrix
	// edge).
	N int
	// Iters is the iteration count where applicable (solver sweeps, CG
	// iterations).
	Iters int
	// Verify enables the built-in correctness check: the program panics
	// (surfacing as a runtime error) if the parallel result diverges
	// from the sequential reference.
	Verify bool
}

// Benchmark describes one suite member.
type Benchmark interface {
	// Name is the suite name (lower case, as used by the CLI).
	Name() string
	// Description matches the Table 2 entry.
	Description() string
	// DefaultSize returns the size used by the paper-scale experiments.
	DefaultSize() Size
	// Factory returns a program factory for the given size: experiments
	// instantiate it per thread count.
	Factory(size Size) core.ProgramFactory
}

// WorkEstimator is implemented by benchmarks whose measurement cost is
// not captured by the registry-wide proxy (ProxyWorkUnits): composed
// workloads, whose cost depends on the pattern tree, and the kernels
// that allocate more float64 elements before their first event than the
// proxy counts. Serving-layer work budgets type-assert for it and fall
// back to the proxy otherwise.
type WorkEstimator interface {
	// WorkUnits estimates the measurement cost of one (size, threads)
	// instantiation in the same abstract units as the serve budget's
	// N×iters×threads product.
	WorkUnits(sz Size, threads int) int64
}

// ProxyWorkUnits is the registry-wide work proxy: problem size ×
// iterations (at least one) × measured threads.
func ProxyWorkUnits(sz Size, threads int) int64 {
	return int64(sz.N) * int64(max(sz.Iters, 1)) * int64(threads)
}

// allocWorkUnits is the work estimate of a kernel whose measurement
// allocates floats float64 elements: the proxy, raised to floats when
// the allocation is larger, so a budget in work units also bounds the
// memory one measurement takes.
func allocWorkUnits(sz Size, threads int, floats int64) int64 {
	return max(ProxyWorkUnits(sz, threads), floats)
}

// ErrDuplicate reports a registration whose name is already taken.
// Callers registering at runtime (compose presets) match it with
// errors.Is; init-time registration still panics via register.
var ErrDuplicate = errors.New("benchmarks: duplicate registration")

var registry = map[string]Benchmark{}

// Register adds b to the registry, failing with an error wrapping
// ErrDuplicate if the name is taken. Registration is not synchronized:
// call it from package init paths only, like the built-in kernels do.
func Register(b Benchmark) error {
	if _, dup := registry[b.Name()]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, b.Name())
	}
	registry[b.Name()] = b
	return nil
}

func register(b Benchmark) {
	if err := Register(b); err != nil {
		panic(err.Error())
	}
}

// All returns every registered benchmark sorted by name.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Suite returns the seven Table 2 benchmarks in the paper's order.
func Suite() []Benchmark {
	names := []string{"embar", "cyclic", "sparse", "grid", "mgrid", "poisson", "sort"}
	out := make([]Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// ByName returns a registered benchmark.
func ByName(name string) (Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("benchmarks: unknown benchmark %q", name)
	}
	return b, nil
}

// verifyf panics with a formatted verification failure; the pcxx scheduler
// converts the panic into a runtime error.
func verifyf(cond bool, format string, args ...any) {
	if !cond {
		panic("verification failed: " + fmt.Sprintf(format, args...))
	}
}

// ceilPow2 returns the smallest power of two ≥ n.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
