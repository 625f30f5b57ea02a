package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// assertMinerMatchesOracle encodes tr through the production miner and
// the reference miner under the given table caps and requires identical
// XTRP2 bytes; under the format's own caps the production bytes must also
// be exactly what WriteBinary2 writes.
func assertMinerMatchesOracle(t testing.TB, tr *trace.Trace, maxPatterns, maxTableRows int) {
	t.Helper()
	var got, want bytes.Buffer
	if err := trace.EncodeWithMiner(&got, tr, false, maxPatterns, maxTableRows); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeWithMiner(&want, tr, true, maxPatterns, maxTableRows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("%d events: production encoding (%d B) differs from the oracle's (%d B) at byte %d",
			len(tr.Events), got.Len(), want.Len(), i)
	}
	if maxPatterns == trace.MaxPatterns && maxTableRows == trace.MaxPatternTableRows {
		var w bytes.Buffer
		if err := trace.WriteBinary2(&w, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), got.Bytes()) {
			t.Fatal("WriteBinary2 differs from the production miner's encoding")
		}
	}
}

// minerTestSize is a small instance of each registry kernel, so the
// quadratic oracle stays fast at 32 threads. Composed presets keep their
// spec size.
func minerTestSize(b benchmarks.Benchmark) benchmarks.Size {
	switch b.Name() {
	case "embar":
		return benchmarks.Size{N: 10}
	case "cyclic":
		return benchmarks.Size{N: 64, Iters: 8}
	case "sparse":
		return benchmarks.Size{N: 64, Iters: 4}
	case "grid":
		return benchmarks.Size{N: 16, Iters: 24}
	case "mgrid":
		return benchmarks.Size{N: 16, Iters: 4}
	case "poisson":
		return benchmarks.Size{N: 16}
	case "sort":
		return benchmarks.Size{N: 256}
	case "matmul":
		return benchmarks.Size{N: 8}
	}
	return b.DefaultSize()
}

var minerTestThreads = []int{1, 2, 4, 8, 16, 32}

// TestMinerMatchesOracle pins the production pattern miner to the
// reference miner byte for byte: synthetic loop, random and rotated
// traces, every registry kernel (composed presets included) across
// thread counts, and the nested compose spec.
func TestMinerMatchesOracle(t *testing.T) {
	synthetic := map[string]*trace.Trace{
		"loop":    trace.MakeLoopTrace(8, 200),
		"random":  trace.MakeRandomTrace(3000),
		"rotated": trace.MakeRotatedTrace(4, 24, 16),
		"empty":   trace.New(4),
	}
	for name, tr := range synthetic {
		t.Run(name, func(t *testing.T) {
			assertMinerMatchesOracle(t, tr, trace.MaxPatterns, trace.MaxPatternTableRows)
		})
	}

	measure := func(t *testing.T, f core.ProgramFactory, threads int) *trace.Trace {
		t.Helper()
		tr, err := core.Measure(f(threads), core.MeasureOptions{})
		if err != nil {
			t.Fatalf("%d threads: %v", threads, err)
		}
		return tr
	}
	for _, b := range benchmarks.All() {
		f := b.Factory(minerTestSize(b))
		for _, threads := range minerTestThreads {
			t.Run(fmt.Sprintf("%s/%d", b.Name(), threads), func(t *testing.T) {
				assertMinerMatchesOracle(t, measure(t, f, threads), trace.MaxPatterns, trace.MaxPatternTableRows)
			})
		}
	}

	// A run one row under the top rung's bar: 43 repeats of a 381-event
	// body after the first copy save 16383 rows, so the top rung rejects
	// it at every window position and the next rung takes it.
	t.Run("planted-top-rung", func(t *testing.T) {
		tr, maxPatterns, maxTableRows := plantedTrace(append([]byte{2, 0}, plantedSeed(3, 381, 0, 128)...), topPlantedEvents)
		assertMinerMatchesOracle(t, tr, maxPatterns, maxTableRows)
	})

	spec, err := os.ReadFile("../compose/testdata/nested.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := compose.FromJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := w.Factory(w.DefaultSize())
	for _, threads := range minerTestThreads {
		t.Run(fmt.Sprintf("nested/%d", threads), func(t *testing.T) {
			assertMinerMatchesOracle(t, measure(t, f, threads), trace.MaxPatterns, trace.MaxPatternTableRows)
		})
	}
}

// Event budgets of planted traces. Fuzz inputs stay small enough that
// the quadratic oracle runs in milliseconds, which leaves runs near every
// bar but the top rung's (16k rows, seconds of oracle time); the top rung
// gets a budget of its own in TestMinerMatchesOracle.
const (
	fuzzPlantedEvents = 1 << 12
	topPlantedEvents  = 1 << 15
)

// byteStream hands out fuzzer bytes, then zeros once they run out.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// plantedTrace turns fuzzer bytes into a trace of at most budget events
// whose delta rows hold planted periodic runs, and picks the
// pattern-table caps to mine under.
//
//	byte 0     threads, 1..8
//	byte 1     caps: 0 keeps the format's caps; otherwise at most b%8
//	           patterns and 16·b table rows, so the table fills
//	then segments, each opened by a selector byte s:
//	  s%4 == 0  1..16 arbitrary events
//	  otherwise a periodic run: a body of p events (p < 64, or < 1024
//	           when s%4 == 3, two bytes) repeated so that the run saves
//	           within one body length of a ladder rung's bar, just under
//	           or just over it (offset byte o: (o-128)·p/128 rows; the
//	           rung byte picks the rung). With s&32 set, one event inside
//	           the run is perturbed, splitting it.
func plantedTrace(data []byte, budget int) (tr *trace.Trace, maxPatterns, maxTableRows int) {
	in := byteStream(data)
	threads := 1 + in.next()%8
	maxPatterns, maxTableRows = trace.MaxPatterns, trace.MaxPatternTableRows
	if c := in.next(); c != 0 {
		maxPatterns, maxTableRows = c%8, 16*c
	}
	tr = trace.New(threads)
	var clock int64
	event := func() trace.Event {
		clock += int64(in.next()%4) * 100
		return trace.Event{
			Time:   vtime.Time(clock),
			Kind:   trace.Kind(1 + in.next()%10),
			Thread: int32(in.next() % threads),
			Arg0:   int64(in.next() % 4),
			Arg1:   64 * int64(in.next()%4),
		}
	}
	for len(in) > 0 && len(tr.Events) < budget {
		sel := in.next()
		if sel%4 == 0 {
			for n := 1 + in.next()%16; n > 0; n-- {
				tr.Append(event())
			}
			continue
		}
		var p int
		if sel%4 == 3 {
			p = 1 + (in.next()<<8|in.next())%1023
		} else {
			p = 1 + in.next()%63
		}
		rung := in.next() % len(trace.MinerLadder)
		savings := trace.MinerLadder[rung] + (in.next()-128)*p/128
		// The first copy's deltas still differ (they are taken against
		// whatever came before), so the periodic run starts at the second.
		count := 2 + max(1, savings/p)
		if room := (budget - len(tr.Events)) / p; count > room {
			count = room
		}
		if count < 2 {
			break
		}
		body := make([]trace.Event, p)
		gaps := make([]int64, p)
		for k := range body {
			before := clock
			body[k] = event()
			gaps[k] = clock - before
		}
		clock = int64(body[0].Time) - gaps[0]
		stride := int64(in.next() % 2) // per-iteration arg0 advance
		first := len(tr.Events)
		for c := 0; c < count; c++ {
			for k, e := range body {
				clock += gaps[k]
				e.Time = vtime.Time(clock)
				e.Arg0 += int64(c) * stride
				tr.Append(e)
			}
		}
		if sel&32 != 0 {
			at := first + (in.next()<<8|in.next())%(count*p)
			tr.Events[at].Arg1++
		}
	}
	return tr, maxPatterns, maxTableRows
}

// plantedSeed encodes one periodic-run segment for plantedTrace with a
// body of p events, the given rung byte and offset byte, and an arg0
// stride of one.
func plantedSeed(sel, p, rung, offset int) []byte {
	seg := []byte{byte(sel), byte(p - 1)}
	if sel%4 == 3 {
		seg = []byte{byte(sel), byte((p - 1) >> 8), byte(p - 1)}
	}
	seg = append(seg, byte(rung), byte(offset))
	for k := 0; k < p; k++ { // gap, kind, thread, arg0, arg1
		seg = append(seg, byte(k), byte(k*7), byte(k), byte(k/3), byte(k%5))
	}
	return append(seg, 1)
}

// FuzzMinerMatchesOracle mines fuzzer-planted periodic runs with the
// production and the reference miner and requires identical XTRP2 bytes.
// Runs sit just under or just over each rung's savings bar, some are split
// by a perturbed event, and small table caps drive the table-full path.
func FuzzMinerMatchesOracle(f *testing.F) {
	// Around each lower rung's bar with a 3-event body: offsets -3 and 0
	// round down to savings just under the bar, +2 lands just over it.
	for rung := 1; rung < len(trace.MinerLadder); rung++ {
		for _, offset := range []int{0, 128, 255} {
			f.Add(append([]byte{4, 0}, plantedSeed(1, 3, rung, offset)...))
		}
	}
	// A long period, split runs with noise between them.
	f.Add(append([]byte{8, 0}, plantedSeed(3, 200, 2, 200)...))
	f.Add(append([]byte{3, 0}, append(plantedSeed(33, 9, 2, 5), plantedSeed(34, 5, 3, 130)...)...))
	f.Add([]byte{2, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 4, 3, 3, 1, 0, 2, 1, 0, 3})
	// Full tables: a one-pattern table meeting two distinct runs, and a
	// 144-row table meeting a 150-row body.
	f.Add(append([]byte{4, 1}, append(plantedSeed(1, 4, 2, 128), plantedSeed(2, 6, 2, 128)...)...))
	f.Add(append([]byte{4, 9}, append(plantedSeed(3, 150, 3, 128), plantedSeed(1, 31, 3, 128)...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, maxPatterns, maxTableRows := plantedTrace(data, fuzzPlantedEvents)
		assertMinerMatchesOracle(t, tr, maxPatterns, maxTableRows)
	})
}

// makeRejectedRunTrace builds a 12000-row run of one repeated event
// followed by 6000 distinct events: the top rung scans the whole trace
// and rejects the run (it saves 11999 rows, under the 2^14 bar) at every
// window position inside it before the next rung takes it.
func makeRejectedRunTrace() *trace.Trace {
	tr := trace.New(4)
	var clock int64
	for i := 0; i < 12000; i++ {
		clock += 100
		tr.Append(trace.Event{Time: vtime.Time(clock), Kind: trace.KindRemoteRead, Arg1: 64})
	}
	for i := 0; i < 6000; i++ {
		clock += int64(1 + i*7919%1000)
		tr.Append(trace.Event{Time: vtime.Time(clock), Kind: trace.KindRemoteWrite,
			Thread: int32(i % 4), Arg0: int64(i * 31 % 977), Arg1: int64(i)})
	}
	return tr
}

// sinkOps keeps the benchmarked mining calls observable.
var sinkOps int

// BenchmarkMinePatterns times the pattern miner alone (delta rows
// precomputed) against the reference miner: on measured traces at 16
// threads of the compose presets and the paper kernels (grid at the
// size the root codec benchmarks use), and on a synthetic trace whose
// long run the top rung rejects, where the reference miner is quadratic.
// Each case reports ns/row, and the production run reports its speedup
// over the oracle run just before it.
func BenchmarkMinePatterns(b *testing.B) {
	const threads = 16
	measured := func(name string, size benchmarks.Size) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			bm, err := benchmarks.ByName(name)
			if err != nil {
				return nil, err
			}
			if size == (benchmarks.Size{}) {
				size = bm.DefaultSize()
			}
			return core.Measure(bm.Factory(size)(threads), core.MeasureOptions{})
		}
	}
	cases := []struct {
		name  string
		trace func() (*trace.Trace, error)
	}{
		{"farm-stencil/16", measured("farm-stencil", benchmarks.Size{})},
		{"pipeline8/16", measured("pipeline8", benchmarks.Size{})},
		{"bsp-reduce/16", measured("bsp-reduce", benchmarks.Size{})},
		{"grid/16", measured("grid", benchmarks.Size{N: 32, Iters: 60})},
		{"mgrid/16", measured("mgrid", benchmarks.Size{N: 16, Iters: 24})},
		{"cyclic/16", measured("cyclic", benchmarks.Size{N: 256, Iters: 8})},
		{"sparse/16", measured("sparse", benchmarks.Size{N: 128, Iters: 6})},
		{"poisson/16", measured("poisson", benchmarks.Size{N: 24})},
		{"sort/16", measured("sort", benchmarks.Size{N: 1024})},
		{"matmul/16", measured("matmul", benchmarks.Size{N: 12})},
		{"embar/16", measured("embar", benchmarks.Size{N: 13})},
		{"rejected-run", func() (*trace.Trace, error) { return makeRejectedRunTrace(), nil }},
	}
	for _, c := range cases {
		tr, err := c.trace()
		if err != nil {
			b.Fatal(err)
		}
		rows := trace.NewDeltaRows(tr)
		var oracleNs float64
		for _, miner := range []string{"oracle", "production"} {
			b.Run(c.name+"/"+miner, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, sinkOps = rows.Mine(miner == "oracle")
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(len(rows)), "ns/row")
				if miner == "oracle" {
					oracleNs = ns
				} else if oracleNs > 0 {
					b.ReportMetric(oracleNs/ns, "x-speedup")
				}
			})
		}
	}
}
