package benchmarks

import (
	"errors"
	"math"
	"sort"
	"testing"

	"extrap/internal/core"
	"extrap/internal/pcxx/dist"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// smallSizes gives each benchmark a fast, verification-friendly size.
func smallSize(name string) Size {
	switch name {
	case "embar":
		return Size{N: 10, Verify: true} // 1024 samples
	case "cyclic":
		return Size{N: 128, Verify: true}
	case "sparse":
		return Size{N: 96, Iters: 8, Verify: true}
	case "grid":
		return Size{N: 16, Iters: 12, Verify: true}
	case "mgrid":
		return Size{N: 16, Iters: 2, Verify: true}
	case "poisson":
		return Size{N: 16, Verify: true}
	case "sort":
		return Size{N: 256, Verify: true}
	case "matmul":
		return Size{N: 12, Verify: true}
	}
	return Size{N: 16, Verify: true}
}

// TestAllBenchmarksVerify runs every registered benchmark at several
// thread counts with the built-in verification enabled: the parallel
// result must match the sequential reference.
func TestAllBenchmarksVerify(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			f := b.Factory(smallSize(b.Name()))
			for _, n := range []int{1, 2, 4, 8} {
				if _, err := core.Measure(f(n), core.MeasureOptions{}); err != nil {
					t.Fatalf("%s with %d threads: %v", b.Name(), n, err)
				}
			}
		})
	}
}

// TestGridEmptyTiles covers processor grids whose ceil-sized blocks
// leave the last processor row or column an empty tile (16 rows over 5
// processor rows is 4+4+4+4+0). Those threads must idle like the
// threads beyond the square grid, and their neighbours must treat the
// shared edge as a physical boundary, so measurement succeeds and the
// Jacobi result still verifies against the sequential reference.
func TestGridEmptyTiles(t *testing.T) {
	cases := []struct{ n, threads int }{
		{16, 32}, {8, 30}, {8, 32}, {12, 30}, {12, 32}, {4, 12},
	}
	for _, tc := range cases {
		cells := dist.NewDist2D(tc.n, tc.n, tc.threads, dist.Block, dist.Block)
		empty := false
		for id := 0; id < cells.UsedThreads(); id++ {
			if r, c := cells.TileShape(id); r == 0 || c == 0 {
				empty = true
			}
		}
		if !empty {
			t.Fatalf("N=%d threads=%d: no empty tile, the case tests nothing", tc.n, tc.threads)
		}
		prog := Grid{}.Factory(Size{N: tc.n, Iters: 3, Verify: true})(tc.threads)
		if _, err := core.Measure(prog, core.MeasureOptions{}); err != nil {
			t.Errorf("grid N=%d threads=%d: %v", tc.n, tc.threads, err)
		}
	}
}

// TestBenchmarkTraceShape checks structural properties of the measurement
// traces: valid, with barriers, and (for the communicating benchmarks)
// remote reads.
func TestBenchmarkTraceShape(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			sz := smallSize(b.Name())
			sz.Verify = false
			tr, err := core.Measure(b.Factory(sz)(4), core.MeasureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			s := trace.ComputeStats(tr)
			if s.Barriers == 0 {
				t.Error("no barriers recorded")
			}
			if b.Name() != "embar" && s.RemoteReads == 0 {
				t.Errorf("%s: no remote reads at 4 threads", b.Name())
			}
			if s.RemoteWrites != 0 {
				t.Errorf("%s: suite benchmarks must not use remote writes (found %d)",
					b.Name(), s.RemoteWrites)
			}
		})
	}
}

// TestSuiteOrder checks the Table 2 ordering and registry consistency.
func TestSuiteOrder(t *testing.T) {
	suite := Suite()
	want := []string{"embar", "cyclic", "sparse", "grid", "mgrid", "poisson", "sort"}
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d entries", len(suite))
	}
	for i, b := range suite {
		if b.Name() != want[i] {
			t.Errorf("Suite()[%d] = %q, want %q", i, b.Name(), want[i])
		}
		if b.Description() == "" {
			t.Errorf("%s has no description", b.Name())
		}
		if b.DefaultSize().N == 0 {
			t.Errorf("%s has no default size", b.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

// TestTraceDeterminism runs each benchmark twice and requires identical
// traces.
func TestTraceDeterminism(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			sz := smallSize(b.Name())
			sz.Verify = false
			run := func() *trace.Trace {
				tr, err := core.Measure(b.Factory(sz)(4), core.MeasureOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			a, bb := run(), run()
			if len(a.Events) != len(bb.Events) {
				t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(bb.Events))
			}
			for i := range a.Events {
				if a.Events[i] != bb.Events[i] {
					t.Fatalf("traces diverge at event %d", i)
				}
			}
		})
	}
}

// fakeBench is a registry probe for duplicate-registration tests.
type fakeBench struct{ name string }

func (f fakeBench) Name() string                     { return f.name }
func (f fakeBench) Description() string              { return "test probe" }
func (f fakeBench) DefaultSize() Size                { return Size{N: 1} }
func (f fakeBench) Factory(Size) core.ProgramFactory { return nil }

// TestRegisterDuplicateTypedError checks the runtime registration path:
// a name collision returns an error matching ErrDuplicate rather than
// panicking, so compose presets can register idempotently.
func TestRegisterDuplicateTypedError(t *testing.T) {
	probe := fakeBench{name: "test-register-probe"}
	if err := Register(probe); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	defer delete(registry, probe.name)
	err := Register(probe)
	if err == nil {
		t.Fatal("duplicate Register returned nil")
	}
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Register error %v does not match ErrDuplicate", err)
	}
	if err := Register(fakeBench{name: "embar"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-registering built-in: got %v, want ErrDuplicate", err)
	}
}

// TestAllSortedByName locks the registry listing order: All() must be
// sorted by name so /v1/benchmarks and /v1/patterns render byte-stable
// output regardless of map iteration order.
func TestAllSortedByName(t *testing.T) {
	for rep := 0; rep < 3; rep++ {
		all := All()
		if len(all) == 0 {
			t.Fatal("empty registry")
		}
		if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name() < all[j].Name() }) {
			names := make([]string, len(all))
			for i, b := range all {
				names[i] = b.Name()
			}
			t.Fatalf("All() not sorted by name: %v", names)
		}
	}
}

// TestDSTBasisMatchesInlineSine: the tabulated transform must produce the
// same bits as evaluating each basis sine inline, term by term in the
// same order, so hoisting the table changes no Poisson value.
func TestDSTBasisMatchesInlineSine(t *testing.T) {
	rng := vtime.NewRand(7)
	for _, g := range []int{1, 2, 7, 40, 72} {
		basis := dstBasis(g)
		in := make([]float64, g)
		for i := range in {
			in[i] = rng.Float64() - 0.5
		}
		got := dstRow(in, basis)
		for k := 0; k < g; k++ {
			s := 0.0
			for j := 0; j < g; j++ {
				s += in[j] * math.Sin(math.Pi*float64((j+1)*(k+1))/float64(g+1))
			}
			if math.Float64bits(got[k]) != math.Float64bits(s) {
				t.Fatalf("g=%d k=%d: tabulated %v, inline %v", g, k, got[k], s)
			}
		}
	}
}

// TestMergeKeepMatchesFullMerge: writing only the kept half must equal
// the matching half of a full stable merge, ties and runs included.
func TestMergeKeepMatchesFullMerge(t *testing.T) {
	rng := vtime.NewRand(11)
	for _, m := range []int{1, 2, 5, 64} {
		for rep := 0; rep < 50; rep++ {
			a, b := make([]float64, m), make([]float64, m)
			for i := range a {
				a[i] = float64(rng.Intn(8)) // small range forces ties
				b[i] = float64(rng.Intn(8))
			}
			sort.Float64s(a)
			sort.Float64s(b)
			full := append(append([]float64{}, a...), b...)
			sort.Float64s(full)
			for _, low := range []bool{true, false} {
				want := full[m:]
				if low {
					want = full[:m]
				}
				got := make([]float64, m)
				mergeKeep(got, a, b, low)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("m=%d low=%v: got %v, want %v (a=%v b=%v)", m, low, got, want, a, b)
					}
				}
			}
		}
	}
}

// TestRadixSortMatchesSortFloat64s: the sort kernel's local radix sort
// must give sort.Float64s's order element by element, on the kernel's
// own key blocks and on duplicates, signed zeros, negatives and ±Inf.
func TestRadixSortMatchesSortFloat64s(t *testing.T) {
	var inputs [][]float64
	keys := sortKeys(1 << 14)
	for _, m := range []int{1 << 14, 2048, 512, 3} {
		inputs = append(inputs, keys[:m])
	}
	rng := vtime.NewRand(21)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		-1, 1, -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, m := range []int{0, 1, 2, 7, 300, 5000} {
		mixed := make([]float64, m)
		for i := range mixed {
			switch rng.Intn(4) {
			case 0:
				mixed[i] = special[rng.Intn(len(special))]
			case 1:
				mixed[i] = float64(rng.Intn(5) - 2) // duplicates
			default:
				mixed[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		inputs = append(inputs, mixed)
	}
	inputs = append(inputs, []float64{3, 3, 3, 3}, []float64{math.Inf(1), math.Inf(-1)})
	for _, in := range inputs {
		got := append([]float64(nil), in...)
		radixSortFloat64s(got, make([]float64, len(got)))
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("len %d: key %d = %v, sort.Float64s gives %v", len(in), i, got[i], want[i])
			}
		}
	}
}

// TestCyclicLevelReadsMissWrites: cyclic's snapshot rows alias its rows,
// which holds only if no forward level reads a neighbour row the same
// level writes. Level s writes rows 2s−1, 4s−1, … and reads each one's
// neighbours at ±s.
func TestCyclicLevelReadsMissWrites(t *testing.T) {
	const maxM = 4096
	writtenAt := make([]int, maxM) // the last level that wrote each row
	level := 0
	for m := 1; m <= maxM; m++ {
		for s := 1; s < m; s *= 2 {
			level++
			for i := 2*s - 1; i < m; i += 2 * s {
				writtenAt[i] = level
			}
			for i := 2*s - 1; i < m; i += 2 * s {
				for _, j := range []int{i - s, i + s} {
					if j >= 0 && j < m && writtenAt[j] == level {
						t.Fatalf("m=%d level s=%d: row %d is both read and written", m, s, j)
					}
				}
			}
		}
	}
}
