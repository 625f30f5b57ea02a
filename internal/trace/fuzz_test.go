package trace

import (
	"bytes"
	"testing"
)

// FuzzBinaryRoundTrip feeds arbitrary bytes to the binary decoder. The
// decoder must never panic and never allocate proportionally to forged
// header fields; whenever it accepts an input, the re-encoding must be
// canonical: encode(decode(x)) is a fixed point of decode∘encode, byte
// for byte.
func FuzzBinaryRoundTrip(f *testing.F) {
	// A well-formed trace.
	good := makeBarrierTrace(4, 2)
	good.PhaseID("init")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// The hostile-header corpus from the decoder regression tests.
	f.Add(hostileHeader(4, 0, nil, 1<<39, nil))               // huge declared nevents
	f.Add(hostileHeader(4, 0, nil, MaxEvents+1, nil))         // nevents past cap
	f.Add(hostileHeaderNPhase(4, 1<<31, 0))                   // forged nphase
	f.Add(hostileHeaderNPhase(4, 1000, 0))                    // truncated phase table
	f.Add(hostileHeader(MaxThreads+1, 0, nil, 0, nil))        // absurd thread count
	f.Add(hostileHeader(1, 0, nil, 100, encodeEvents([]Event{ // truncated events
		{Time: 1, Kind: KindThreadStart, Thread: 0}})))
	f.Add(hostileHeader(2, 0, nil, 1, encodeEvents([]Event{ // thread out of range
		{Time: 1, Kind: KindThreadStart, Thread: 9}})))
	f.Add(hostileHeader(1, 0, nil, 1, encodeEvents([]Event{ // invalid kind
		{Time: 1, Kind: 0xee, Thread: 0}})))
	f.Add([]byte("XTRP1")) // magic only
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteBinary(&enc1, tr); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr2, err := ReadBinary(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteBinary(&enc2, tr2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("encode→decode→encode is not byte-stable")
		}
	})
}

// FuzzXTRP2RoundTrip feeds arbitrary bytes to the format-dispatching
// decoder, seeded with well-formed XTRP2 streams and the hostile
// pattern-table corpus. The decoder must never panic and never allocate
// ahead of the input; every accepted input must survive an XTRP2
// re-encode with identical events, and the XTRP2 encoding of any
// accepted trace must decode back to the same events (the byte-identity
// guarantee the prediction pipeline relies on). The compiled cursor
// that serves predictions must accept exactly the XTRP2 inputs the
// streaming decoder accepts, yielding identical events.
func FuzzXTRP2RoundTrip(f *testing.F) {
	// Well-formed streams: a loop-structured trace (pattern table in
	// use), a barrier trace, and an empty trace.
	for _, tr := range []*Trace{makeLoopTrace(4, 30), makeBarrierTrace(4, 2), New(2)} {
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
	f.Add(hostile2(4, 0, MaxPatterns+1, nil))
	f.Add(hostile2(4, 0, 1000, nil))
	f.Add(hostile2(4, 0, 1, uvarint(0)))
	f.Add(hostile2(4, 0, 1, uvarint(MaxPatternRows+1)))
	f.Add(hostile2(4, 0, 1, concat(uvarint(64), start)))
	f.Add(hostile2(4, 4, 1, concat(onePattern, []byte{opRepeat}, uvarint(1), uvarint(2))))
	f.Add(hostile2(4, 4, 1, concat(onePattern, []byte{opRepeat}, uvarint(0), uvarint(1<<62))))
	f.Add(hostile2(4, 4, 0, concat([]byte{opLiteral}, uvarint(4), start)))
	f.Add(hostile2(4, 1<<39, 0, concat([]byte{opLiteral}, uvarint(1<<39))))
	f.Add(hostile2(4, 4, 0, []byte{0x7f}))
	f.Add([]byte("XTRP2")) // magic only

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinaryAny(bytes.NewReader(data))
		if IsXTRP2(data) {
			evs, cerr := compiledEvents(data)
			switch {
			case (err == nil) != (cerr == nil):
				t.Fatalf("decoder error %v, compiled cursor error %v", err, cerr)
			case err == nil && len(evs) != len(tr.Events):
				t.Fatalf("compiled cursor produced %d events, decoder %d", len(evs), len(tr.Events))
			case err == nil:
				for i := range evs {
					if evs[i] != tr.Events[i] {
						t.Fatalf("event %d: compiled cursor %+v, decoder %+v", i, evs[i], tr.Events[i])
					}
				}
			}
		}
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := WriteBinary2(&enc1, tr); err != nil {
			t.Fatalf("XTRP2 encode of accepted trace failed: %v", err)
		}
		tr2, err := ReadBinaryAny(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("round trip produced %d events, want %d", len(tr2.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if tr2.Events[i] != tr.Events[i] {
				t.Fatalf("event %d changed in round trip: %+v vs %+v", i, tr2.Events[i], tr.Events[i])
			}
		}
		var enc2 bytes.Buffer
		if err := WriteBinary2(&enc2, tr2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("encode→decode→encode is not byte-stable")
		}
	})
}
