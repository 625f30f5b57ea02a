package benchmarks_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	_ "extrap/internal/compose" // registers the compose presets
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

// traceGoldenEdges are the smallest and largest (size, iters) the
// end-to-end sweep-cold workload draws for the kernels whose host-side
// work depends most on size; every registry kernel is also pinned at
// its default size.
var traceGoldenEdges = map[string][]benchmarks.Size{
	"cyclic":  {{N: 600, Iters: 24}, {N: 673, Iters: 32}},
	"grid":    {{N: 20, Iters: 26}, {N: 63, Iters: 40}},
	"poisson": {{N: 40, Iters: 1}, {N: 72, Iters: 20}},
	"sort":    {{N: 16000}, {N: 16659}},
	"sparse":  {{N: 1200, Iters: 1}, {N: 1859, Iters: 1}},
}

// TestMeasuredTraceGoldens pins the measured traces themselves, not just
// the predictions derived from them: the SHA-256 of the XTRP2 encoding
// of every registry kernel's measurement, over the processor ladder and
// both transfer-size modes, must match testdata/traces.golden. Host-side
// changes to the threads package, the pcxx runtime or a kernel's Go
// code must leave every line unchanged. Regenerate with
// EXTRAP_GOLDEN_UPDATE=1 only for an intended change of what a program
// records.
func TestMeasuredTraceGoldens(t *testing.T) {
	var got strings.Builder
	for _, b := range benchmarks.All() {
		sizes := []benchmarks.Size{b.DefaultSize()}
		for _, e := range traceGoldenEdges[b.Name()] {
			sz := b.DefaultSize()
			sz.N = e.N
			if e.Iters > 0 {
				sz.Iters = e.Iters
			}
			sz.Verify = false
			sizes = append(sizes, sz)
		}
		for _, sz := range sizes {
			f := b.Factory(sz)
			for _, threads := range core.DefaultProcCounts() {
				for _, mode := range []pcxx.SizeMode{pcxx.CompilerEstimate, pcxx.ActualSize} {
					tr, err := core.Measure(f(threads), core.MeasureOptions{SizeMode: mode})
					if err != nil {
						t.Fatalf("%s %+v t=%d %v: %v", b.Name(), sz, threads, mode, err)
					}
					var buf bytes.Buffer
					if err := trace.WriteBinary2(&buf, tr); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s n=%d iters=%d verify=%t threads=%d %s %x\n",
						b.Name(), sz.N, sz.Iters, sz.Verify, threads, mode, sha256.Sum256(buf.Bytes()))
				}
			}
		}
	}
	path := filepath.Join("testdata", "traces.golden")
	if os.Getenv("EXTRAP_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden regenerated")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with EXTRAP_GOLDEN_UPDATE=1): %v", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%s has %d lines, the run produced %d", path, len(wl), len(gl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s drifted at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
}
