package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// fuzzProgram deterministically shapes a pcxx program from fuzz bytes:
// thread count, loop nest, compute grains, communication partners, and
// transfer sizes are all data-driven, so the fuzzer explores the space
// of loop-structured (and loop-broken) traces the XTRP2 miner and the
// pattern-replay kernel see in the wild.
func fuzzProgram(data []byte) (*trace.Trace, error) {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	threads := 2 + at(0)%6
	outer := 1 + at(1)%24
	inner := 1 + at(2)%5
	burst := at(3) % 4

	cfg := pcxx.DefaultConfig(threads)
	if at(4)%2 == 1 {
		cfg.SizeMode = pcxx.ActualSize
	}
	rt := pcxx.NewRuntime(cfg)
	c := pcxx.PerThread[[256]byte](rt, "x", 256)
	return rt.Run(func(th *pcxx.Thread) {
		var v [256]byte
		for j := 0; j < burst; j++ {
			c.Write(th, (th.ID()+1+j)%threads, v)
		}
		for i := 0; i < outer; i++ {
			for j := 0; j < inner; j++ {
				g := at(5 + i*inner + j)
				th.Compute(vtime.Time(1+g%40) * vtime.Microsecond)
				sz := int64(1 + at(6+i+j)%256)
				_ = c.ReadPart(th, (th.ID()+1+at(7+j)%(threads-1))%threads, sz)
			}
			if at(8+i)%3 != 0 {
				th.Barrier()
			}
		}
	})
}

// FuzzPatternReplayEquivalence is the tentpole invariant under fuzzing:
// for any measurable program, the XTRP2 encoding replayed through the
// production path (ExtrapolateEncoded: compiled pattern programs +
// steady-state fast-forward) must produce a prediction byte-identical
// to the event-replay oracle (ExtrapolateReader over the compiled
// cursor behind a plain trace.Reader, which hides it from translation,
// so nothing fast-forwards) — same totals, same per-thread breakdowns,
// same network statistics.
func FuzzPatternReplayEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 12, 2, 0, 0, 9, 17, 4, 1})
	f.Add([]byte{7, 23, 4, 3, 1, 200, 100, 50, 25, 12, 6, 3})
	f.Add(bytes.Repeat([]byte{5, 16, 1, 0, 0, 30}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := fuzzProgram(data)
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		cfg := machine.GenericDM().Config
		ps, err := trace.NewPatternSource(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExtrapolateReader(context.Background(), ps.Header(), struct{ trace.Reader }{ps}, cfg)
		if err != nil {
			t.Fatalf("event replay: %v", err)
		}
		got, err := ExtrapolateEncoded(context.Background(), buf.Bytes(), cfg)
		if err != nil {
			t.Fatalf("pattern replay: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern replay diverged from event replay:\n  pattern: %+v\n  event:   %+v",
				got.Result, want.Result)
		}
	})
}
