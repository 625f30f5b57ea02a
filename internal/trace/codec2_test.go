package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

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
			got, err := ReadBinary2(enc)
			if err != nil {
				t.Fatalf("ReadBinary2: %v", err)
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

// TestXTRP2RoundTripViaStreamDecoder: the compiled cursor, the one
// XTRP2 stream decoder, declares the encoded event count and yields the
// encoded events one at a time, then io.EOF.
func TestXTRP2RoundTripViaStreamDecoder(t *testing.T) {
	tr := makeLoopTrace(4, 50)
	d, err := NewPatternSource(encode2(t, tr))
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

// TestXTRP2CompresssLoopTraces is the codec-level compression check: a
// loop-structured trace must shrink at least 5x against its flat
// fixed-record size (EncodedSize), and the shrink must come from pattern
// replay, not luck.
func TestXTRP2CompressesLoopTraces(t *testing.T) {
	tr := makeLoopTrace(16, 500)
	flat := EncodedSize(tr.Header(), len(tr.Events))
	enc2 := encode2(t, tr)
	if ratio := float64(flat) / float64(len(enc2)); ratio < 5 {
		t.Fatalf("XTRP2 = %d bytes, flat = %d bytes: ratio %.1fx < 5x", len(enc2), flat, ratio)
	}

	d, err := NewPatternSource(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if d.ct.Patterns() == 0 {
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
	flat := EncodedSize(tr.Header(), len(tr.Events))
	enc2 := encode2(t, tr)
	// Worst-case wire rows are ~1 + 5×10 bytes vs 37 flat, but random
	// args here are small-delta-free; allow 1.5x headroom.
	if int64(len(enc2)) > flat*3/2 {
		t.Fatalf("XTRP2 = %d bytes on random trace, flat = %d", len(enc2), flat)
	}
}

// TestBinaryReadersCheckMagic: the binary reader decodes XTRP2 and
// refuses any other magic, the retired XTRP1's included, with
// ErrBadMagic.
func TestBinaryReadersCheckMagic(t *testing.T) {
	tr := makeBarrierTrace(4, 2)
	enc2 := encode2(t, tr)
	got, err := ReadBinary2(enc2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, tr, got)
	xtrp1 := append([]byte("XTRP1"), enc2[5:]...)
	for _, data := range [][]byte{xtrp1, []byte("XTRP9????")} {
		if _, err := ReadBinary2(data); err != ErrBadMagic {
			t.Fatalf("ReadBinary2 on %q: err = %v, want ErrBadMagic", data[:5], err)
		}
	}
}

func TestWriteBinaryFormat(t *testing.T) {
	tr := makeBarrierTrace(2, 1)
	if got := FormatXTRP2.String(); got != "xtrp2" {
		t.Fatalf("FormatXTRP2.String() = %q, want %q", got, "xtrp2")
	}
	var buf bytes.Buffer
	if err := WriteBinaryFormat(&buf, tr, FormatXTRP2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, tr, got)
	for _, f := range []Format{1, 9} {
		if err := WriteBinaryFormat(io.Discard, tr, f); err == nil {
			t.Fatalf("WriteBinaryFormat accepted unknown %v", f)
		}
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
	return hostileHeader(threads, 0, nil, nevents, concat(binary.LittleEndian.AppendUint32(nil, npatterns), tail))
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

// expandingHostiles are small XTRP2 inputs whose repeat ops declare
// many events, with the error a whole-trace read must give each before
// it expands a single event. The first, 51 bytes found by fuzzing,
// declares 1,099,503,238,916 events and would repeat a one-row pattern
// 77,594,625 times before an unknown opcode; the second, 48 bytes, is a
// valid stream declaring 2^39. The header refuses both, past
// MaxTraceEvents. The third declares 2^23 events, under the bound, and
// repeats a one-row pattern 2^22 times before an unknown opcode, so
// compiling it fails on the opcode, still before any event is expanded.
var expandingHostiles = []struct {
	name string
	data []byte
	err  string
}{
	{
		"repeat before bad opcode",
		[]byte("XTRP2\x04" + strings.Repeat("\x00", 15) +
			"\x04\xff\x7f\xff\xff\x00\x00\x00\x01\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x01\x00\x81\x80\x80%\x80\x80\x80\x80@"),
		fmt.Sprintf("trace: 1099503238916 events declared, more than the %d a whole-trace read holds", MaxTraceEvents),
	},
	{
		"repeat past the read bound",
		hostile2(4, 1<<39, 1, concat(uvarint(1), wireRow(byte(KindThreadStart)), []byte{opRepeat}, uvarint(0), uvarint(1<<39))),
		fmt.Sprintf("trace: %d events declared, more than the %d a whole-trace read holds", uint64(1)<<39, MaxTraceEvents),
	},
	{
		"repeat under the bound before bad opcode",
		hostile2(4, 1<<23, 1, concat(uvarint(1), wireRow(byte(KindThreadStart)), []byte{opRepeat}, uvarint(0), uvarint(1<<22), []byte{0x7f})),
		"trace: event 4194304: unknown opcode 0x7f",
	},
}

// TestXTRP2HostileInputs: every hostile input is rejected by the
// whole-trace read, which compiles and then replays it. Where the varint
// conventions decide the error, it is binary.ReadUvarint's.
func TestXTRP2HostileInputs(t *testing.T) {
	wantErr := map[string]string{
		"varint overflow":        "trace: event 0: literal run: binary: varint overflows a 64-bit integer",
		"varint overlong at end": "trace: event 0: literal run: binary: varint overflows a 64-bit integer",
		"truncated delta block":  "trace: event 1: unexpected EOF",
		"pattern rows truncated": "trace: pattern 0: unexpected EOF",
	}
	for name, data := range xtrp2HostileCases() {
		t.Run(name, func(t *testing.T) {
			tr, err := ReadBinary2(data)
			if err == nil {
				t.Fatalf("decoder accepted hostile input: %d events", len(tr.Events))
			}
			if want, ok := wantErr[name]; ok && err.Error() != want {
				t.Fatalf("decoder error %q, want %q", err, want)
			}
		})
	}
}

// TestXTRP2HostileAllocationBounded: forged counts must not make a
// whole-trace read allocate ahead of the bytes actually supplied, and a
// repeat op declaring billions of events must fail before any event is
// expanded, with the error naming the cause.
func TestXTRP2HostileAllocationBounded(t *testing.T) {
	type hostile struct {
		data []byte
		err  string
	}
	cases := map[string]hostile{
		"forged npatterns": {data: hostile2(4, 0, MaxPatterns, nil)},
		"forged nrows":     {data: hostile2(4, 0, 1, uvarint(MaxPatternRows))},
		"forged nevents":   {data: hostile2(4, 1<<39, 0, concat([]byte{opLiteral}, uvarint(1<<39)))},
	}
	for _, h := range expandingHostiles {
		cases[h.name] = hostile{h.data, h.err}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tr, err := ReadBinary2(c.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("decoded hostile trace: %d events", len(tr.Events))
			}
			if c.err != "" && err.Error() != c.err {
				t.Fatalf("error %q, want %q", err, c.err)
			}
			if grown := int64(after.TotalAlloc) - int64(before.TotalAlloc); grown > 1<<20 {
				t.Fatalf("decoding a %d-byte hostile file allocated %d bytes", len(c.data), grown)
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
	if _, err := ReadBinary2(enc); err != nil {
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
