package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"extrap/internal/machine"
	"extrap/internal/trace"
)

// hostileHeader is the start of an XTRP2 header: magic, 4 threads, no
// event overhead, no phases.
const hostileHeader = "XTRP2\x04" + "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"

// hostileEncodings are small XTRP2 inputs whose repeat ops declare many
// events, with the error compiling each gives before any event is
// expanded. The first two declare more than trace.MaxTraceEvents
// events, so the header refuses them; the third declares 2^23, under
// the bound, and repeats a one-row pattern 2^22 times before an unknown
// opcode.
var hostileEncodings = []struct{ name, data, err string }{
	{
		"bad-opcode",
		hostileHeader + "\x04\xff\x7f\xff\xff\x00\x00\x00\x01\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x01\x00\x81\x80\x80%\x80\x80\x80\x80@",
		fmt.Sprintf("trace: 1099503238916 events declared, more than the %d a whole-trace read holds", trace.MaxTraceEvents),
	},
	{
		// nevents 2^39; one one-row pattern; repeat it 2^39 times.
		"past-bound",
		hostileHeader + "\x00\x00\x00\x00\x80\x00\x00\x00" + "\x01\x00\x00\x00" +
			"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x80\x80\x80\x10",
		fmt.Sprintf("trace: %d events declared, more than the %d a whole-trace read holds", uint64(1)<<39, trace.MaxTraceEvents),
	},
	{
		// nevents 2^23; one one-row pattern; repeat it 2^22 times;
		// opcode 0x7f.
		"under-bound-bad-opcode",
		hostileHeader + "\x00\x00\x80\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00" +
			"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x80\x02" + "\x7f",
		"trace: event 4194304: unknown opcode 0x7f",
	},
}

// TestExtrapolateEncodedRefusesHostile: the served path refuses each
// hostile input with its compile error, allocating under 1 MiB — never
// in proportion to the events it declares.
func TestExtrapolateEncodedRefusesHostile(t *testing.T) {
	cfg := machine.CM5().Config
	for _, h := range hostileEncodings {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ExtrapolateEncoded(context.Background(), []byte(h.data), cfg)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != h.err {
			t.Errorf("%s: err = %v, want %q", h.name, err, h.err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: allocated %d bytes on a %d-byte input", h.name, grown, len(h.data))
		}
	}
}

// TestRefusedBackendArtifactIsAMiss: a backend artifact that does not
// compile — a hostile peer's bytes, past the event bound or malformed —
// is a miss. The cache answers exactly as a cache with no backend does,
// measuring once, and overwrites the artifact with the fresh encoding.
func TestRefusedBackendArtifactIsAMiss(t *testing.T) {
	key := CacheKey{Bench: "hostile", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }
	want, err := NewTraceCache(4, 0).Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hostileEncodings {
		b := newFakeBackend()
		b.PutTrace(key, trace.FormatXTRP2, []byte(h.data))
		c := NewTraceCache(4, 0)
		c.SetBackend(b)
		got, err := c.Encoded(key, measure)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: answer differs from a cache with no backend", h.name)
		}
		if _, misses := c.Stats(); misses != 1 {
			t.Errorf("%s: %d measurements, want 1", h.name, misses)
		}
		if stored, _ := b.stored(key); !bytes.Equal(stored, want) {
			t.Errorf("%s: hostile artifact not overwritten with the fresh encoding", h.name)
		}
	}
}
