package compose

import (
	"bytes"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
)

// FuzzComposeSpec feeds hostile, deep, and oversized specs to the full
// FromJSON path: any input must either parse into a workload whose
// canonical identity is self-consistent or return an error — never
// panic. Accepted workloads must stay within the published ceilings,
// and every accepted spec of at most 2^14 work units at 3 threads must
// synthesize, at 1 to 3 threads, the trace its pcxx lowering measures,
// byte for byte: synthesis runs on worker nodes fed coordinator-relayed
// client bytes.
func FuzzComposeSpec(f *testing.F) {
	f.Add([]byte(nestedSpec))
	f.Add([]byte(`{"root":{"kind":"bsp"}}`))
	f.Add([]byte(`{"size":8,"root":{"kind":"stencil","width":32,"height":4,"sweeps":2}}`))
	f.Add([]byte(`{"root":{"kind":"pipeline","stages":[{"kind":"task_farm","tasks":9}]}}`))
	f.Add([]byte(`{"root":{"kind":"reduction","op":"flat","imbalance":1.5}}`))
	f.Add([]byte(`{"root":{"kind":"seq","children":[{"kind":"par","children":[{"kind":"bsp"}]}]}}`))
	f.Add([]byte(`{"root":{"kind":"seq","children":[]}}`))
	f.Add([]byte(strings.Repeat(`{"root":{"kind":"seq","children":[`, 40)))
	f.Add([]byte(`{"root":{"kind":"bsp","imbalance":1e308}}`))
	f.Add([]byte(`{"root":{"kind":"task_farm","tasks":-1}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		w, err := FromJSON(raw)
		if err != nil {
			return
		}
		if w.Name() != w.Name() || len(w.Name()) != 35 {
			t.Fatalf("inconsistent name %q", w.Name())
		}
		if w.Nodes() > MaxNodes || w.Depth() > MaxDepth {
			t.Fatalf("accepted spec outside ceilings: %d nodes, depth %d", w.Nodes(), w.Depth())
		}
		if w.WorkUnits(benchmarks.Size{N: 1, Iters: 1}, 1) > MaxSpecEvents {
			t.Fatal("accepted spec beyond the event ceiling")
		}
		// Round trip: the canonical re-marshal must re-derive the same
		// identity.
		again, err := FromJSON(w.SpecJSON())
		if err != nil {
			t.Fatalf("SpecJSON of accepted spec rejected: %v", err)
		}
		if again.Canonical() != w.Canonical() {
			t.Fatalf("round trip changed canonical:\n%s\n%s", w.Canonical(), again.Canonical())
		}
		// Synthesis must write the lowering's trace byte for byte. The
		// size bound keeps each input's pcxx oracle runs cheap.
		size := benchmarks.Size{N: 1, Iters: 1}
		if w.WorkUnits(size, 3) > 1<<14 {
			return
		}
		for threads := 1; threads <= 3; threads++ {
			want, err := core.Measure(oracle(w, size, threads), core.MeasureOptions{})
			if err != nil {
				t.Fatalf("%d threads: oracle: %v", threads, err)
			}
			got, err := core.Measure(w.Factory(size)(threads), core.MeasureOptions{})
			if err != nil {
				t.Fatalf("%d threads: synthesis: %v", threads, err)
			}
			if !bytes.Equal(xtrp2(t, got), xtrp2(t, want)) {
				t.Fatalf("%d threads: synthesized trace differs from the lowering's\n%s", threads, firstDiff(got, want))
			}
		}
	})
}
