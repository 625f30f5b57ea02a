package trace

import (
	"bytes"
	"testing"
)

// fuzzRoundTripEvents bounds the traces FuzzXTRP2RoundTrip expands and
// re-encodes. CompileBinary accepts larger ones, up to MaxTraceEvents,
// but at hundreds of bytes per event a fuzz worker would spend its
// memory and time on a few of them.
const fuzzRoundTripEvents = 1 << 12

// FuzzXTRP2RoundTrip feeds arbitrary bytes to CompileBinary, seeded with
// well-formed XTRP2 streams and the hostile header and pattern-table
// corpora. The compiler must never panic, never allocate ahead of the
// input, and refuse every stream declaring more than MaxTraceEvents
// events. Every stream it accepts and ReadBinary2 replays must survive
// an XTRP2 re-encode with identical header and events, and re-encoding
// that is byte-stable (the byte-identity guarantee the prediction
// pipeline relies on).
func FuzzXTRP2RoundTrip(f *testing.F) {
	// Well-formed streams: a loop-structured trace (pattern table in
	// use), a barrier trace, and an empty trace.
	for _, tr := range []*Trace{makeLoopTrace(4, 30), makeBarrierTrace(4, 2), New(1)} {
		var buf bytes.Buffer
		if err := WriteBinary2(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	// The hostile pattern-table corpus: forged counts, cyclic/dangling
	// pattern refs, count overflows, truncated delta blocks.
	start := wireRow(byte(KindThreadStart))
	onePattern := concat(uvarint(1), start)
	f.Add(hostile2(1, 0, MaxPatterns+1, nil))
	f.Add(hostile2(1, 0, 1000, nil))
	f.Add(hostile2(1, 0, 1, uvarint(0)))
	f.Add(hostile2(1, 0, 1, uvarint(MaxPatternRows+1)))
	f.Add(hostile2(1, 0, 1, concat(uvarint(64), start)))
	f.Add(hostile2(4, 4, 1, concat(onePattern, []byte{opRepeat}, uvarint(1), uvarint(2))))
	f.Add(hostile2(4, 4, 1, concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(1<<62))))
	f.Add(hostile2(4, 4, 0, concat([]byte{opLiteral}, uvarint(4), start)))
	f.Add(hostile2(4, 1<<39, 0, concat([]byte{opLiteral}, uvarint(1<<39))))
	f.Add(hostile2(4, 1<<40+1, 0, concat([]byte{opLiteral}, uvarint(1<<40+1))))
	past := uint64(MaxTraceEvents) + 1
	f.Add(hostile2(4, past, 1, concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(past))))
	f.Add(hostile2(4, 4, 0, []byte{0x7f}))
	f.Add([]byte("XTRP2")) // magic only
	f.Add([]byte("not a trace"))
	// The hostile-header corpus: declared counts past the bound, forged
	// and truncated phase tables, an absurd thread count.
	f.Add(hostileHeader(4, 0, nil, 1<<39, nil))
	f.Add(hostileHeader(4, 0, nil, 1<<40+1, nil))
	f.Add(hostileHeader(4, 0, nil, uint64(MaxTraceEvents)+1, nil))
	f.Add(hostileHeaderNPhase(4, 1<<31, 0))
	f.Add(hostileHeaderNPhase(4, 1000, 0))
	f.Add(hostileHeader(MaxThreads+1, 0, nil, 0, nil))
	// Repeat ops declaring about 2^40, 2^39 and 2^23 events.
	for _, h := range expandingHostiles {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := CompileBinary(data)
		if err != nil {
			return
		}
		declared := ct.declare
		ct.Release()
		if declared > uint64(MaxTraceEvents) {
			t.Fatalf("compiled a stream declaring %d events, past MaxTraceEvents", declared)
		}
		if declared > fuzzRoundTripEvents {
			return
		}
		tr, err := ReadBinary2(data)
		if err != nil {
			return // a thread id out of range surfaces on replay
		}
		var enc1 bytes.Buffer
		if err := WriteBinary2(&enc1, tr); err != nil {
			t.Fatalf("XTRP2 encode of accepted trace failed: %v", err)
		}
		tr2, err := ReadBinary2(enc1.Bytes())
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		assertSameTrace(t, tr, tr2)
		var enc2 bytes.Buffer
		if err := WriteBinary2(&enc2, tr2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("encode→decode→encode is not byte-stable")
		}
	})
}
