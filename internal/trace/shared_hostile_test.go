package trace_test

import (
	"context"
	"runtime"
	"testing"

	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// TestSharedBranchRefusesHostile: every input of the hostile corpus, a
// repeat op whose thread deltas walk out of range on its fourth event,
// and a barrier exit without entry ahead of an out-of-range thread each
// fails a two-config core.ExtrapolateEncodedAll, which translates a
// program the fast-forward predicate clears once for both configs, with
// exactly the error a single streaming ExtrapolateEncoded gives, and
// allocates under 1 MiB doing so. Where the bytes compile, the shared
// translation itself refuses them.
func TestSharedBranchRefusesHostile(t *testing.T) {
	cases := trace.XTRP2HostileCases()
	start := trace.WireRow(byte(trace.KindThreadStart), 0, 1)
	cases["repeat walks thread out of range"] = trace.HostileXTRP2(4, 8, 1,
		trace.Concat(trace.Uvarint(1), start, []byte{trace.OpRepeat}, trace.Uvarint(0), trace.Uvarint(8)))
	cases["translation fault before a thread fault"] = trace.HostileXTRP2(4, 3, 0,
		trace.Concat([]byte{trace.OpLiteral}, trace.Uvarint(3),
			trace.WireRow(byte(trace.KindThreadStart)),
			trace.WireRow(byte(trace.KindBarrierExit), 1),
			trace.WireRow(byte(trace.KindThreadStart), 1, 9)))
	cfgs := []sim.Config{machine.CM5().Config, machine.GenericDM().Config}
	ctx := context.Background()
	compiled := 0
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, streamErr := core.ExtrapolateEncoded(ctx, data, cfgs[0])
			if streamErr == nil {
				t.Fatal("streaming extrapolation accepted a hostile input")
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := core.ExtrapolateEncodedAll(ctx, data, cfgs)
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != streamErr.Error() {
				t.Fatalf("shared call: err = %v, want the stream's %q", err, streamErr)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("allocated %d bytes on a %d-byte input", grown, len(data))
			}
			ct, cerr := trace.CompileBinary(data)
			if cerr != nil {
				return // refused before any branch is chosen
			}
			defer ct.Release()
			compiled++
			if !sim.NeverFastForwards(ct) || ct.Declared() > 1<<10 {
				t.Fatalf("a %d-event program the predicate flags: the call streams it", ct.Declared())
			}
			if w, werr := translate.TranslateWhole(ct); werr == nil {
				w.Release()
				t.Fatal("the shared translation accepted a hostile input")
			}
		})
	}
	if compiled < 4 {
		t.Fatalf("only %d hostile inputs compile; the corpus must reach the shared translation", compiled)
	}
}
