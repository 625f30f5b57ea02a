package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"extrap/internal/vtime"
)

// makeLoopTrace builds the shape XTRP2 exists for: threads iterations of
// an identical compute/communicate/barrier epoch, with timestamps and
// barrier ids advancing by constant strides.
func makeLoopTrace(threads, iters int) *Trace {
	t := New(threads)
	t.EventOverhead = 120
	clock := vtime.Time(0)
	for th := 0; th < threads; th++ {
		t.Append(Event{Time: clock, Kind: KindThreadStart, Thread: int32(th), Arg0: int64(threads)})
	}
	for it := 0; it < iters; it++ {
		for th := 0; th < threads; th++ {
			clock += 500
			t.Append(Event{Time: clock, Kind: KindRemoteRead, Thread: int32(th),
				Arg0: int64((th + 1) % threads), Arg1: 4096, Arg2: PackRef(2, int32(th))})
			clock += 200
			t.Append(Event{Time: clock, Kind: KindBarrierEntry, Thread: int32(th), Arg0: int64(it)})
		}
		for th := 0; th < threads; th++ {
			t.Append(Event{Time: clock, Kind: KindBarrierExit, Thread: int32(th), Arg0: int64(it)})
		}
	}
	for th := 0; th < threads; th++ {
		clock += 10
		t.Append(Event{Time: clock, Kind: KindThreadEnd, Thread: int32(th)})
	}
	return t
}

// makeRandomTrace builds an unminable trace: valid kinds and threads but
// random times and args, so everything lands in literal runs.
func makeRandomTrace(n int) *Trace {
	rng := rand.New(rand.NewSource(42))
	t := New(8)
	clock := vtime.Time(0)
	for i := 0; i < n; i++ {
		clock += vtime.Time(rng.Intn(1000))
		t.Append(Event{
			Time:   clock,
			Kind:   Kind(1 + rng.Intn(int(kindCount)-1)),
			Thread: int32(rng.Intn(8)),
			Arg0:   rng.Int63() - rng.Int63(),
			Arg1:   rng.Int63() - rng.Int63(),
			Arg2:   rng.Int63() - rng.Int63(),
		})
	}
	return t
}

func encode2(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, tr); err != nil {
		t.Fatalf("WriteBinary2: %v", err)
	}
	return buf.Bytes()
}

func assertSameTrace(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.NumThreads != want.NumThreads {
		t.Fatalf("NumThreads = %d, want %d", got.NumThreads, want.NumThreads)
	}
	if got.EventOverhead != want.EventOverhead {
		t.Fatalf("EventOverhead = %v, want %v", got.EventOverhead, want.EventOverhead)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("got %d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for i := range want.Phases {
		if got.Phases[i] != want.Phases[i] {
			t.Fatalf("phase %d = %q, want %q", i, got.Phases[i], want.Phases[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("got %d events, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestXTRP2RoundTripIdentity(t *testing.T) {
	cases := map[string]*Trace{
		"empty":    New(4),
		"barriers": makeBarrierTrace(4, 3),
		"loop":     makeLoopTrace(8, 200),
		"random":   makeRandomTrace(3000),
	}
	cases["barriers"].PhaseID("init")
	cases["barriers"].PhaseID("solve")
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			enc := encode2(t, tr)
			got, err := ReadBinaryAny(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("ReadBinaryAny: %v", err)
			}
			assertSameTrace(t, tr, got)

			// Re-encoding the decoded trace is byte-stable.
			enc2 := encode2(t, got)
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(enc2))
			}
		})
	}
}

func TestXTRP2RoundTripViaStreamDecoder(t *testing.T) {
	tr := makeLoopTrace(4, 50)
	d, err := NewDecoder2(bytes.NewReader(encode2(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Declared() != uint64(len(tr.Events)) {
		t.Fatalf("Declared() = %d, want %d", d.Declared(), len(tr.Events))
	}
	for i := range tr.Events {
		e, err := d.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e != tr.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, tr.Events[i])
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last event: err = %v, want io.EOF", err)
	}
}

// TestXTRP2DecoderRefillsMatchCompiled: the streaming decoder parses
// through the same wire reader as the compiler, refilling its window
// from the input as it goes. Fed in one- and few-byte reads, which put
// every item across refill boundaries, it must yield the compiled
// cursor's events exactly.
func TestXTRP2DecoderRefillsMatchCompiled(t *testing.T) {
	for _, tr := range []*Trace{makeLoopTrace(8, 120), makeRandomTrace(3000)} {
		enc := encode2(t, tr)
		want, err := compiledEvents(enc)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(enc)),
			"half":     iotest.HalfReader(bytes.NewReader(enc)),
		} {
			got, err := ReadBinaryAny(r)
			if err != nil {
				t.Fatalf("%s reads: %v", name, err)
			}
			if len(got.Events) != len(want) {
				t.Fatalf("%s reads: %d events, compiled %d", name, len(got.Events), len(want))
			}
			for i := range want {
				if got.Events[i] != want[i] {
					t.Fatalf("%s reads: event %d = %+v, compiled %+v", name, i, got.Events[i], want[i])
				}
			}
		}
	}
}

// TestXTRP2CompresssLoopTraces is the codec-level compression check: a
// loop-structured trace must shrink at least 5x against its flat XTRP1
// encoding, and the shrink must come from pattern replay, not luck.
func TestXTRP2CompressesLoopTraces(t *testing.T) {
	tr := makeLoopTrace(16, 500)
	var enc1 bytes.Buffer
	if err := WriteBinary(&enc1, tr); err != nil {
		t.Fatal(err)
	}
	enc2 := encode2(t, tr)
	if ratio := float64(enc1.Len()) / float64(len(enc2)); ratio < 5 {
		t.Fatalf("XTRP2 = %d bytes, XTRP1 = %d bytes: ratio %.1fx < 5x", len(enc2), enc1.Len(), ratio)
	}

	d, err := NewDecoder2(bytes.NewReader(enc2))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.patterns) == 0 {
		t.Fatal("no patterns mined from a loop trace")
	}
	for {
		if _, err := d.Next(); err != nil {
			break
		}
	}
	if d.replayed < d.literal {
		t.Fatalf("replayed %d events, literal %d: loop trace should be replay-dominated", d.replayed, d.literal)
	}
}

// TestXTRP2RandomStaysLiteral: an unminable trace must still round-trip
// and must not pay more than varint overhead over its information
// content (i.e. the encoder never blows up a trace it cannot compress
// beyond the flat record size).
func TestXTRP2RandomNotLarger(t *testing.T) {
	tr := makeRandomTrace(2000)
	var enc1 bytes.Buffer
	if err := WriteBinary(&enc1, tr); err != nil {
		t.Fatal(err)
	}
	enc2 := encode2(t, tr)
	// Worst-case wire rows are ~1 + 5×10 bytes vs 37 flat, but random
	// args here are small-delta-free; allow 1.5x headroom.
	if len(enc2) > enc1.Len()*3/2 {
		t.Fatalf("XTRP2 = %d bytes on random trace, XTRP1 = %d", len(enc2), enc1.Len())
	}
}

func TestNewAnyDecoderDispatchesByMagic(t *testing.T) {
	tr := makeBarrierTrace(4, 2)
	var enc1 bytes.Buffer
	if err := WriteBinary(&enc1, tr); err != nil {
		t.Fatal(err)
	}
	d1, err := NewAnyDecoder(bytes.NewReader(enc1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d1.(*Decoder); !ok {
		t.Fatalf("XTRP1 bytes dispatched to %T", d1)
	}
	d2, err := NewAnyDecoder(bytes.NewReader(encode2(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.(*Decoder2); !ok {
		t.Fatalf("XTRP2 bytes dispatched to %T", d2)
	}
	if _, err := NewAnyDecoder(bytes.NewReader([]byte("XTRP9????"))); err != ErrBadMagic {
		t.Fatalf("unknown magic: err = %v, want ErrBadMagic", err)
	}

	got1, err := ReadBinaryAny(bytes.NewReader(enc1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, tr, got1)
}

func TestWriteBinaryFormat(t *testing.T) {
	tr := makeBarrierTrace(2, 1)
	for f, name := range map[Format]string{FormatXTRP1: "xtrp1", FormatXTRP2: "xtrp2"} {
		if f.String() != name {
			t.Fatalf("%v.String() = %q, want %q", f, f.String(), name)
		}
		var buf bytes.Buffer
		if err := WriteBinaryFormat(&buf, tr, f); err != nil {
			t.Fatalf("WriteBinaryFormat(%v): %v", f, err)
		}
		got, err := ReadBinaryAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		assertSameTrace(t, tr, got)
	}
	if err := WriteBinaryFormat(io.Discard, tr, Format(9)); err == nil {
		t.Fatal("WriteBinaryFormat accepted an unknown format")
	}
}

func TestXTRP2EncoderRejectsInvalidEvents(t *testing.T) {
	bad := New(2)
	bad.Append(Event{Time: 1, Kind: 0xee, Thread: 0})
	if err := WriteBinary2(io.Discard, bad); err == nil {
		t.Fatal("encoded an invalid kind")
	}
	bad2 := New(2)
	bad2.Append(Event{Time: 1, Kind: KindThreadStart, Thread: 7})
	if err := WriteBinary2(io.Discard, bad2); err == nil {
		t.Fatal("encoded an out-of-range thread")
	}
}

// --- hostile-input corpus -------------------------------------------------

// hostile2 builds an XTRP2 stream with every length field under the
// attacker's control: header fields, the pattern table, and a raw
// program tail.
func hostile2(threads uint32, nevents uint64, npatterns uint32, tail []byte) []byte {
	var buf bytes.Buffer
	buf.Write(binary2Magic[:])
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], threads)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], 0)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], 0) // nphase
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], nevents)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], npatterns)
	buf.Write(scratch[:4])
	buf.Write(tail)
	return buf.Bytes()
}

func uvarint(v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return b[:binary.PutUvarint(b[:], v)]
}

// wireRow encodes one delta row for hostile test bodies.
func wireRow(kind byte, deltas ...int64) []byte {
	out := []byte{kind}
	for len(deltas) < 5 {
		deltas = append(deltas, 0)
	}
	for _, d := range deltas[:5] {
		out = append(out, uvarint(zigzag(d))...)
	}
	return out
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// xtrp2HostileCases is the hostile XTRP2 corpus: forged counts,
// dangling and cyclic pattern refs, count overflows, truncations, bad
// kinds and out-of-range thread deltas.
func xtrp2HostileCases() map[string][]byte {
	start := wireRow(byte(KindThreadStart))
	onePattern := concat(uvarint(1), start) // 1-row pattern table
	return map[string][]byte{
		"pattern count past cap": hostile2(4, 0, MaxPatterns+1, nil),
		"truncated table":        hostile2(4, 0, 1000, nil),
		"empty pattern":          hostile2(4, 0, 1, uvarint(0)),
		"pattern rows past cap":  hostile2(4, 0, 1, uvarint(MaxPatternRows+1)),
		"pattern rows truncated": hostile2(4, 0, 1, concat(uvarint(64), start)),
		"pattern invalid kind":   hostile2(4, 0, 1, concat(uvarint(1), wireRow(0xee))),
		"repeat id out of range": hostile2(4, 4, 1,
			concat(onePattern, []byte{opRepeat}, uvarint(7), uvarint(2))),
		// The self-referencing flavor of a cyclic pattern ref: the table
		// has one entry, and the program names the next (nonexistent) id.
		"repeat id cyclic": hostile2(4, 4, 1,
			concat(onePattern, []byte{opRepeat}, uvarint(1), uvarint(2))),
		"repeat count zero": hostile2(4, 4, 1,
			concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(0))),
		"repeat count overflow": hostile2(4, 4, 1,
			concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(1<<62))),
		"repeat past declared": hostile2(4, 4, 1,
			concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(5))),
		"literal count zero": hostile2(4, 4, 0,
			concat([]byte{opLiteral}, uvarint(0))),
		"literal past declared": hostile2(4, 1, 0,
			concat([]byte{opLiteral}, uvarint(2), start, start)),
		"truncated delta block": hostile2(4, 4, 0,
			concat([]byte{opLiteral}, uvarint(4), start)),
		"program truncated": hostile2(4, 4, 0, nil),
		"unknown opcode":    hostile2(4, 4, 0, []byte{0x7f}),
		"literal invalid kind": hostile2(4, 1, 0,
			concat([]byte{opLiteral}, uvarint(1), wireRow(0xee))),
		"thread delta out of range": hostile2(4, 1, 0,
			concat([]byte{opLiteral}, uvarint(1), wireRow(byte(KindThreadStart), 0, 99))),
		"thread delta negative": hostile2(4, 2, 0,
			concat([]byte{opLiteral}, uvarint(2),
				wireRow(byte(KindThreadStart), 0, 1),
				wireRow(byte(KindThreadStart), 0, -2))),
		"varint overflow": hostile2(4, 1, 0,
			concat([]byte{opLiteral}, bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64), []byte{0x01})),
		"varint overlong at end": hostile2(4, 1, 0,
			concat([]byte{opLiteral}, bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64))),
	}
}

// compiledEvents replays data through the production path — the
// compiled pattern cursor every served prediction reads — to the end
// of the stream, returning its events or its first error.
func compiledEvents(data []byte) ([]Event, error) {
	ps, err := NewPatternSource(data)
	if err != nil {
		return nil, err
	}
	var evs []Event
	for {
		e, err := ps.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

// TestXTRP2HostileInputs: every hostile input is rejected by both the
// streaming decoder and the compiled cursor, with the same error. Where
// the varint conventions decide the error, it is binary.ReadUvarint's.
func TestXTRP2HostileInputs(t *testing.T) {
	wantErr := map[string]string{
		"varint overflow":        "trace: event 0: literal run: binary: varint overflows a 64-bit integer",
		"varint overlong at end": "trace: event 0: literal run: binary: varint overflows a 64-bit integer",
		"truncated delta block":  "trace: event 1: unexpected EOF",
		"pattern rows truncated": "trace: pattern 0: unexpected EOF",
	}
	for name, data := range xtrp2HostileCases() {
		t.Run(name, func(t *testing.T) {
			tr, err := ReadBinaryAny(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("decoder accepted hostile input: %d events", len(tr.Events))
			}
			if want, ok := wantErr[name]; ok && err.Error() != want {
				t.Fatalf("decoder error %q, want %q", err, want)
			}
			evs, cerr := compiledEvents(data)
			if cerr == nil {
				t.Fatalf("compiled cursor accepted hostile input: %d events", len(evs))
			}
			if cerr.Error() != err.Error() {
				t.Fatalf("compiled cursor error %q, decoder error %q", cerr, err)
			}
		})
	}
}

// TestXTRP2HostileAllocationBounded: forged counts must not allocate
// ahead of the bytes actually supplied, through either the streaming
// decoder or the compiler.
func TestXTRP2HostileAllocationBounded(t *testing.T) {
	cases := map[string][]byte{
		"forged npatterns": hostile2(4, 0, MaxPatterns, nil),
		"forged nrows":     hostile2(4, 0, 1, uvarint(MaxPatternRows)),
		"forged nevents":   hostile2(4, 1<<39, 0, concat([]byte{opLiteral}, uvarint(1<<39))),
	}
	decoders := map[string]func([]byte) (int, error){
		"decoder": func(data []byte) (int, error) {
			tr, err := ReadBinaryAny(bytes.NewReader(data))
			if err != nil {
				return 0, err
			}
			return len(tr.Events), nil
		},
		"compiled": func(data []byte) (int, error) {
			evs, err := compiledEvents(data)
			return len(evs), err
		},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			for dname, decode := range decoders {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				n, err := decode(data)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s: decoded hostile trace: %d events", dname, n)
				}
				if grown := int64(after.TotalAlloc) - int64(before.TotalAlloc); grown > 1<<20 {
					t.Fatalf("%s: decoding a %d-byte hostile file allocated %d bytes", dname, len(data), grown)
				}
			}
		})
	}
}

// TestXTRP2CountersAdvance: decoding a compressed stream moves the
// process-wide compression telemetry.
func TestXTRP2CountersAdvance(t *testing.T) {
	tr := makeLoopTrace(8, 100)
	before := ReadCompressionCounters()
	enc := encode2(t, tr)
	if _, err := ReadBinaryAny(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	after := ReadCompressionCounters()
	if after.EncodedTraces <= before.EncodedTraces {
		t.Fatal("EncodedTraces did not advance")
	}
	if after.PatternEntries <= before.PatternEntries {
		t.Fatal("PatternEntries did not advance")
	}
	if got := after.ReplayEvents + after.LiteralEvents - before.ReplayEvents - before.LiteralEvents; got != uint64(len(tr.Events)) {
		t.Fatalf("decode counters advanced by %d, want %d", got, len(tr.Events))
	}
	if after.ReplayEvents == before.ReplayEvents {
		t.Fatal("ReplayEvents did not advance on a loop trace")
	}
}
