package extrap

// Trace-compaction guarantees, asserted at the top of the stack: the
// XTRP2 codec shrinks real measurement traces by at least the headline
// factor, and switching wire formats never changes a prediction — the
// loop-detected encoding is a storage optimization, not a modeling
// change.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/sim"
	"extrap/internal/trace"
)

// measureDefaultSize produces the 16-thread default-size measurement
// trace of a named benchmark — full-scale traces, since the compression
// target is about what real workloads store.
func measureDefaultSize(t *testing.T, name string) *trace.Trace {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(b.Factory(b.DefaultSize())(16), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// encode2 returns the XTRP2 encoding of one trace.
func encode2(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestXTRP2CompressionOnBenchmarks pins the headline compression target
// on real measurement traces: the iterative kernels encode at least 5×
// smaller under XTRP2 than their flat fixed-record size,
// trace.EncodedSize (in practice 9–15×, but the floor asserted here is
// what the docs promise). The decoded events must also match exactly —
// compression that loses information would pass a pure size check.
func TestXTRP2CompressionOnBenchmarks(t *testing.T) {
	for _, name := range []string{"mgrid", "embar", "grid"} {
		tr := measureDefaultSize(t, name)
		flat, enc2 := trace.EncodedSize(tr.Header(), len(tr.Events)), encode2(t, tr)
		ratio := float64(flat) / float64(len(enc2))
		t.Logf("%s: %d events, flat=%d B, xtrp2=%d B, ratio=%.2f",
			name, len(tr.Events), flat, len(enc2), ratio)
		if ratio < 5 {
			t.Errorf("%s: compression ratio %.2f, want ≥ 5", name, ratio)
		}
		got, err := trace.ReadBinary2(enc2)
		if err != nil {
			t.Fatalf("%s: decoding XTRP2: %v", name, err)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Errorf("%s: XTRP2 round trip altered the events", name)
		}
	}
}

// TestPredictionsByteIdenticalAcrossFormats asserts the compaction
// contract end to end: for every combination of kernel, machine model,
// and barrier algorithm tried, the streaming prediction from XTRP2
// bytes equals — field for field — the prediction the CLI makes from a
// text file (read whole, then streamed from memory) and the in-memory
// pipeline's.
func TestPredictionsByteIdenticalAcrossFormats(t *testing.T) {
	machines := []sim.Config{
		machine.GenericDM().Config,
		machine.CM5().Config,
	}
	barriers := []sim.BarrierAlgorithm{sim.LinearBarrier, sim.TreeBarrier, sim.HardwareBarrier}
	ctx := context.Background()
	for _, name := range []string{"mgrid", "embar", "cyclic"} {
		tr := measureDefaultSize(t, name)
		enc2 := encode2(t, tr)
		var text bytes.Buffer
		if err := trace.WriteText(&text, tr); err != nil {
			t.Fatal(err)
		}
		var cfgs []sim.Config
		for _, m := range machines {
			for _, alg := range barriers {
				cfg := m
				cfg.Barrier.Algorithm = alg
				cfgs = append(cfgs, cfg)
			}
		}
		tr1, err := trace.ReadText(&text)
		if err != nil {
			t.Fatalf("%s: decoding text: %v", name, err)
		}
		for i, cfg := range cfgs {
			p1, err := core.ExtrapolateReader(ctx, tr1.Header(), tr1.Reader(), cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: text stream: %v", name, i, err)
			}
			p2, err := core.ExtrapolateEncoded(ctx, enc2, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: xtrp2 stream: %v", name, i, err)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Errorf("%s cfg %d: text and XTRP2 streaming predictions differ:\n%+v\nvs\n%+v", name, i, p1, p2)
			}
			pt, res, err := inMemory(tr, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: in-memory: %v", name, i, err)
			}
			if p2.Result.TotalTime != res.TotalTime ||
				p2.Measured1P != tr.Duration() ||
				p2.Ideal != pt.Duration() {
				t.Errorf("%s cfg %d: XTRP2 streaming prediction differs from the in-memory pipeline", name, i)
			}
		}
	}
}
