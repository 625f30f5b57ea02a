package compose

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

// synthCase is one measurement of the synthesis-vs-lowering corpus.
type synthCase struct {
	name    string
	w       *Workload
	size    benchmarks.Size
	threads int
	opts    core.MeasureOptions
}

// oracleCorpus is the corpus TestSynthesisMatchesLowering checks: the
// presets and testdata/nested.json at their default sizes, then 500
// seeded random specs. Spec i alternates the size mode, uses a 250 ns
// event overhead every third spec and runs 1 to 3 iterations; every
// fifth spec of few events is also measured at 64 and 256 threads.
func oracleCorpus(t *testing.T) []synthCase {
	const randomSpecs = 500
	t.Helper()
	var ws []*Workload
	for _, p := range Presets() {
		ws = append(ws, p.Workload())
	}
	raw, err := os.ReadFile("testdata/nested.json")
	if err != nil {
		t.Fatal(err)
	}
	nested, err := FromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, nested)
	r := rand.New(rand.NewSource(0x73796e7468))
	for len(ws) < 4+randomSpecs {
		raw, err := json.Marshal(randomOracleSpec(r))
		if err != nil {
			t.Fatal(err)
		}
		w, err := FromJSON(raw)
		if err != nil {
			t.Fatalf("generated spec %s rejected: %v", raw, err)
		}
		ws = append(ws, w)
	}

	var cases []synthCase
	for i, w := range ws {
		size := w.DefaultSize()
		opts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
		if i >= 4 {
			size.Iters = 1 + i%3
			if i%2 == 0 {
				opts.SizeMode = pcxx.CompilerEstimate
			}
			if i%3 == 0 {
				opts.EventOverhead = 250
			}
		}
		threads := []int{1, 2, 3, 4, 5, 7, 8, 16, 32}
		if i%5 == 0 && w.WorkUnits(size, 4) <= 256 {
			threads = append(threads, 64, 256)
		}
		for _, n := range threads {
			cases = append(cases, synthCase{
				name: fmt.Sprintf("spec%d/%s/iters%d/%dthreads/%s/overhead%d", i, w.Canonical(), size.Iters, n, opts.SizeMode, opts.EventOverhead),
				w:    w, size: size, threads: n, opts: opts,
			})
		}
	}
	return cases
}

// randomOracleSpec draws a spec of up to depth 3 covering every kind:
// 1-D and 2-D stencils (some narrower than the processor grid, so some
// threads own nothing), tree, flat and defaulted reductions, and zero
// fields left to their defaults.
func randomOracleSpec(r *rand.Rand) Spec {
	return Spec{Size: r.Intn(40), Iters: r.Intn(3), Root: randomOracleNode(r, 1)}
}

func randomOracleNode(r *rand.Rand, depth int) Node {
	if depth < 3 && r.Intn(3) < 4-2*depth {
		kids := make([]Node, 1+r.Intn(3))
		for i := range kids {
			kids[i] = randomOracleNode(r, depth+1)
		}
		switch r.Intn(3) {
		case 0:
			return Node{Kind: KindPipeline, MessageBytes: 8 * r.Intn(9), Stages: kids}
		case 1:
			return Node{Kind: KindSeq, Children: kids}
		default:
			return Node{Kind: KindPar, Children: kids}
		}
	}
	n := Node{Grain: r.Intn(20), MessageBytes: 16 * r.Intn(5), Imbalance: float64(r.Intn(9)) * 0.25}
	switch r.Intn(5) {
	case 0:
		n.Kind, n.Tasks = KindTaskFarm, r.Intn(70)
	case 1, 2:
		n.Kind, n.Width, n.Sweeps = KindStencil, r.Intn(40), r.Intn(3)
		if r.Intn(2) == 0 {
			n.Height = 1 + r.Intn(9)
		}
	case 3:
		n.Kind, n.Op = KindReduction, []string{"", OpTree, OpFlat}[r.Intn(3)]
	default:
		n.Kind, n.Supersteps = KindBSP, r.Intn(5)
	}
	return n
}

// xtrp2 encodes a trace.
func xtrp2(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSynthesisMatchesLowering: the synthesized trace of every corpus
// case encodes to the same XTRP2 bytes as the pcxx lowering's measured
// run, and one counted iteration times the iterations is exactly its
// length.
func TestSynthesisMatchesLowering(t *testing.T) {
	cases := oracleCorpus(t)
	for _, c := range cases {
		want, err := core.Measure(oracle(c.w, c.size, c.threads), c.opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		got, err := core.Measure(c.w.Factory(c.size)(c.threads), c.opts)
		if err != nil {
			t.Fatalf("%s: synthesis: %v", c.name, err)
		}
		if !bytes.Equal(xtrp2(t, got), xtrp2(t, want)) {
			t.Fatalf("%s: synthesized trace differs from the lowering's\n%s", c.name, firstDiff(got, want))
		}
		per, err := flatten(&c.w.spec.Root, max(c.size.N, 1), c.threads).count(nil)
		if err != nil {
			t.Fatal(err)
		}
		if per*int64(c.size.Iters) != int64(len(want.Events)) {
			t.Fatalf("%s: counted %d events per iteration × %d, measured %d", c.name, per, c.size.Iters, len(want.Events))
		}
	}
	t.Logf("%d cases", len(cases))
}

// firstDiff describes where two traces first differ.
func firstDiff(got, want *trace.Trace) string {
	if got.NumThreads != want.NumThreads || got.EventOverhead != want.EventOverhead {
		return fmt.Sprintf("header %d/%v, want %d/%v", got.NumThreads, got.EventOverhead, want.NumThreads, want.EventOverhead)
	}
	for i := range min(len(got.Events), len(want.Events)) {
		if got.Events[i] != want.Events[i] {
			return fmt.Sprintf("event %d: %v, want %v", i, got.Events[i], want.Events[i])
		}
	}
	return fmt.Sprintf("%d events, want %d", len(got.Events), len(want.Events))
}

// TestOversizedTraceRefusedBeforeAllocating: requests within the work
// budget whose traces would take gigabytes fail fast with
// trace.ErrTraceTooLarge, allocating far less than the trace.
func TestOversizedTraceRefusedBeforeAllocating(t *testing.T) {
	for _, c := range []struct {
		spec           string
		iters, threads int
	}{
		{`{"root":{"kind":"reduction","op":"tree"}}`, 43690, 256},
		{`{"root":{"kind":"reduction","op":"flat"}}`, 15887, 64},
		{`{"root":{"kind":"bsp","supersteps":32}}`, 2048, 256},
	} {
		w, err := FromJSON([]byte(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		size := benchmarks.Size{N: w.DefaultSize().N, Iters: c.iters}
		if units := w.WorkUnits(size, c.threads); units > 1<<26 {
			t.Fatalf("%s: %d work units, outside the request budget this case must pass", c.spec, units)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err = core.Measure(w.Factory(size)(c.threads), core.MeasureOptions{})
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, trace.ErrTraceTooLarge) {
			t.Errorf("%s at %d threads × %d iters: error %v, want ErrTraceTooLarge", c.spec, c.threads, c.iters, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%s: refusing allocated %d bytes", c.spec, alloc)
		}
		if took > 5*time.Second {
			t.Errorf("%s: refusing took %v", c.spec, took)
		}
	}
}

// TestSynthesisInterrupted: a context cancelled while the trace is being
// written aborts the measurement with an error matching context.Canceled.
func TestSynthesisInterrupted(t *testing.T) {
	w, err := FromJSON([]byte(`{"iters":20,"root":{"kind":"bsp","supersteps":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := w.Factory(w.DefaultSize())(32)
	emit := prog.Emit
	prog.Emit = func(cfg pcxx.Config) (*trace.Trace, error) {
		polls := 0
		inner := cfg.Interrupt
		cfg.Interrupt = func() error {
			if polls++; polls == 2 {
				cancel()
			}
			return inner()
		}
		return emit(cfg)
	}
	_, err = core.MeasureContext(ctx, prog, core.MeasureOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}
