package trace

import (
	"bytes"
	"io"
	"testing"

	"extrap/internal/vtime"
)

// drain streams every event out of a PatternSource.
func drain(t *testing.T, ps *PatternSource) []Event {
	t.Helper()
	var out []Event
	for {
		e, err := ps.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// TestPatternSourceMatchesDecoder: the compiled cursor over a trace's
// XTRP2 bytes must stream exactly the trace's header and events, for
// loopy, unminable, and barrier-structured traces alike.
func TestPatternSourceMatchesDecoder(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"loop", makeLoopTrace(4, 30)},
		{"random", makeRandomTrace(500)},
		{"barrier", makeBarrierTrace(4, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.tr
			enc := encode2(t, tc.tr)
			ps, err := NewPatternSource(enc)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, ps)
			if len(got) != len(want.Events) {
				t.Fatalf("cursor produced %d events, want %d", len(got), len(want.Events))
			}
			for i := range got {
				if got[i] != want.Events[i] {
					t.Fatalf("event %d: cursor %+v, want %+v", i, got[i], want.Events[i])
				}
			}
			if hdr := ps.Header(); hdr.NumThreads != want.NumThreads {
				t.Fatalf("header threads = %d, want %d", hdr.NumThreads, want.NumThreads)
			}
		})
	}
}

// TestPatternSourceSkipIterations: skipping k whole body iterations
// mid-repeat must land the cursor exactly where event-by-event replay
// would after producing those k × bodyLen events — every later event
// identical, counters advanced as if produced.
func TestPatternSourceSkipIterations(t *testing.T) {
	enc := encode2(t, makeLoopTrace(4, 40))
	ref, err := NewPatternSource(enc)
	if err != nil {
		t.Fatal(err)
	}
	all := drain(t, ref)

	ps, err := NewPatternSource(enc)
	if err != nil {
		t.Fatal(err)
	}
	var produced int
	const skip = 7
	for {
		if _, bodyLen, repLeft, ok := ps.RepeatState(); ok && repLeft > skip+1 {
			if err := ps.SkipIterations(skip); err != nil {
				t.Fatal(err)
			}
			produced += skip * bodyLen
			break
		}
		if _, err := ps.Next(); err != nil {
			t.Fatalf("never entered a skippable repeat (err %v)", err)
		}
		produced++
	}
	rest := drain(t, ps)
	if got, want := produced+len(rest), len(all); got != want {
		t.Fatalf("skip accounting: produced %d events, want %d", got, want)
	}
	for i, e := range rest {
		if e != all[produced+i] {
			t.Fatalf("event %d after skip: %+v, want %+v", produced+i, e, all[produced+i])
		}
	}

	// Contract: cannot skip the whole remainder, zero, or outside a
	// repeat.
	ps2, _ := NewPatternSource(enc)
	if err := ps2.SkipIterations(1); err == nil {
		t.Fatal("SkipIterations outside a repeat must fail")
	}
}

// TestMinerFindsRotatedLongPeriod reproduces the shape that masked the
// miner before first-occurrence candidates: a loop whose body contains
// a long run of near-identical micro-rows AND whose thread interleaving
// rotates across rounds, so the true period is threads × rows-per-round
// while every window inside the micro-run keeps proposing the tiny
// (unverifiable) period. The miner must still find a long-period repeat
// covering the rotation.
func TestMinerFindsRotatedLongPeriod(t *testing.T) {
	const threads, rounds, reads = 4, 24, 16
	tr := makeRotatedTrace(threads, rounds, reads)

	// True period: the rotation cycle = threads rounds.
	rowsPerRound := threads*(reads+1) + threads
	period := threads * rowsPerRound

	enc := encode2(t, tr)
	ps, err := NewPatternSource(enc)
	if err != nil {
		t.Fatal(err)
	}
	maxBody := 0
	for {
		if _, err := ps.Next(); err != nil {
			break
		}
		if _, bodyLen, _, ok := ps.RepeatState(); ok && bodyLen > maxBody {
			maxBody = bodyLen
		}
	}
	if maxBody < period {
		t.Fatalf("longest mined body = %d rows; want ≥ the %d-row rotation period "+
			"(micro-run masking regression)", maxBody, period)
	}

	// And the round trip must stay exact.
	back, err := ReadBinary2(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, tr, back)
}

// makeRotatedTrace builds rounds of a barrier loop in which each thread
// issues reads remote reads before entering the barrier, with the thread
// order rotated by one every round.
func makeRotatedTrace(threads, rounds, reads int) *Trace {
	tr := New(threads)
	clock := vtime.Time(0)
	for th := 0; th < threads; th++ {
		tr.Append(Event{Time: clock, Kind: KindThreadStart, Thread: int32(th), Arg0: int64(threads)})
	}
	for r := 0; r < rounds; r++ {
		for slot := 0; slot < threads; slot++ {
			th := (r + slot) % threads // rotated schedule
			for j := 0; j < reads; j++ {
				clock += 300
				tr.Append(Event{Time: clock, Kind: KindRemoteRead, Thread: int32(th),
					Arg0: int64((th + 1) % threads), Arg1: 512, Arg2: PackRef(1, int32(th))})
			}
			clock += 100
			tr.Append(Event{Time: clock, Kind: KindBarrierEntry, Thread: int32(th), Arg0: int64(r)})
		}
		for slot := 0; slot < threads; slot++ {
			tr.Append(Event{Time: clock, Kind: KindBarrierExit, Thread: int32((r + slot) % threads), Arg0: int64(r)})
		}
	}
	for th := 0; th < threads; th++ {
		clock += 10
		tr.Append(Event{Time: clock, Kind: KindThreadEnd, Thread: int32(th)})
	}
	return tr
}

// TestReleaseDropsTables: a released compiled trace waits in a pool with
// its slab, so it must drop its header's phase table and every row
// slice that a later compile does not overwrite.
func TestReleaseDropsTables(t *testing.T) {
	tr := makeLoopTrace(4, 30)
	tr.Phases = []string{"solve"}
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	ct, err := CompileBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ct.Patterns() == 0 || len(ct.Header().Phases) != 1 {
		t.Fatalf("compiled %d patterns and phases %v, want a pattern table and one phase", ct.Patterns(), ct.Header().Phases)
	}
	ct.Release()
	if ct.hdr.Phases != nil || ct.lits != nil {
		t.Errorf("released trace keeps phases %v and %d literal rows", ct.hdr.Phases, len(ct.lits))
	}
	for i, body := range ct.patterns {
		if body != nil {
			t.Errorf("released trace keeps pattern %d (%d rows)", i, len(body))
		}
	}
}
