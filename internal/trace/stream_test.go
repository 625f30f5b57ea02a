package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"extrap/internal/vtime"
)

// hostileHeader builds a raw XTRP2 header with arbitrary (possibly
// absurd) field values, followed by body bytes. It deliberately bypasses
// WriteBinary2 so tests can express inputs a well-behaved writer would
// never produce.
func hostileHeader(threads uint32, ovh uint64, phases []string, nevents uint64, body []byte) []byte {
	var buf bytes.Buffer
	buf.Write(binary2Magic[:])
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], threads)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], ovh)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(phases)))
	buf.Write(scratch[:4])
	for _, p := range phases {
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(p)))
		buf.Write(scratch[:2])
		buf.WriteString(p)
	}
	binary.LittleEndian.PutUint64(scratch[:8], nevents)
	buf.Write(scratch[:8])
	buf.Write(body)
	return buf.Bytes()
}

// hostileHeaderNPhase is hostileHeader with the phase *count* field forged
// independently of the phase entries actually present.
func hostileHeaderNPhase(threads, nphase uint32, nevents uint64) []byte {
	var buf bytes.Buffer
	buf.Write(binary2Magic[:])
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], threads)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], 0)
	buf.Write(scratch[:8])
	binary.LittleEndian.PutUint32(scratch[:4], nphase)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], nevents)
	buf.Write(scratch[:8])
	return buf.Bytes()
}

// TestHostileHeaderHugeEventCount is the regression test for the
// pre-allocation bug: a 29-byte header declaring 2^39 events must fail
// fast with a small, bounded allocation instead of demanding ~18 TB.
func TestHostileHeaderHugeEventCount(t *testing.T) {
	data := hostileHeader(4, 0, nil, 1<<39, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ct, err := CompileBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("compiled hostile trace declaring %d events", ct.declare)
	}
	if grown := int64(after.TotalAlloc) - int64(before.TotalAlloc); grown > 1<<20 {
		t.Fatalf("decoding a 29-byte hostile header allocated %d bytes", grown)
	}
}

// TestHostileHeaderEventCountPastCap: the header parser rejects a
// declared count above MaxTraceEvents outright, before any op is read.
func TestHostileHeaderEventCountPastCap(t *testing.T) {
	for _, n := range []uint64{uint64(MaxTraceEvents) + 1, 1<<40 + 1} {
		want := fmt.Sprintf("trace: %d events declared, more than the %d a whole-trace read holds", n, MaxTraceEvents)
		if _, err := CompileBinary(hostile2(4, n, 0, nil)); err == nil || err.Error() != want {
			t.Errorf("declaring %d events: err = %v, want %q", n, err, want)
		}
	}
}

// TestHostileHeaderHugePhaseCount: a forged nphase with no phase bytes
// behind it must not allocate a giant phase table.
func TestHostileHeaderHugePhaseCount(t *testing.T) {
	for _, nphase := range []uint32{MaxPhases + 1, 1 << 31} {
		data := hostileHeaderNPhase(4, nphase, 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := CompileBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("nphase=%d: decoder accepted forged phase count", nphase)
		}
		if grown := int64(after.TotalAlloc) - int64(before.TotalAlloc); grown > 1<<20 {
			t.Fatalf("nphase=%d: allocated %d bytes on a tiny file", nphase, grown)
		}
	}
}

// TestHostileHeaderTruncatedPhaseTable: a plausible nphase whose entries
// are missing must hit unexpected EOF, growing only by the bytes present.
func TestHostileHeaderTruncatedPhaseTable(t *testing.T) {
	data := hostileHeaderNPhase(4, 1000, 0)
	if _, err := CompileBinary(data); err == nil {
		t.Fatal("decoder accepted truncated phase table")
	}
}

// TestHostileHeaderPhaseBytesCap: many max-length names must trip the
// cumulative MaxPhaseBytes cap.
func TestHostileHeaderPhaseBytesCap(t *testing.T) {
	name := strings.Repeat("x", 0xffff)
	phases := make([]string, MaxPhaseBytes/0xffff+2)
	for i := range phases {
		phases[i] = name
	}
	// An empty pattern table follows, so only the cap can refuse it.
	data := hostileHeader(4, 0, phases, 0, make([]byte, 4))
	if _, err := CompileBinary(data); err == nil || !strings.Contains(err.Error(), "phase table exceeds") {
		t.Fatalf("phase table past MaxPhaseBytes: err = %v", err)
	}
}

// TestHostileHeaderThreadCount rejects implausible declared thread
// counts.
func TestHostileHeaderThreadCount(t *testing.T) {
	if _, err := CompileBinary(hostile2(MaxThreads+1, 0, 0, nil)); err == nil || !strings.Contains(err.Error(), "implausible thread count") {
		t.Fatalf("thread count past MaxThreads: err = %v", err)
	}
}

// TestTextRejectsHostileHeaders mirrors the binary hardening for the
// text format: forged phase ids and thread counts must not be honored.
func TestTextRejectsHostileHeaders(t *testing.T) {
	cases := []string{
		"#xtrp text 1\n#threads 4\n#phase 9999999999 boom\n",
		"#xtrp text 1\n#threads 4\n#phase -1 boom\n",
		fmt.Sprintf("#xtrp text 1\n#threads %d\n", MaxThreads+1),
		"#xtrp text 1\n#threads -2\n",
		// Thread id out of declared range.
		"#xtrp text 1\n#threads 2\n5 thread-start t7 0 0 0\n",
	}
	for _, in := range cases {
		if tr, err := ReadText(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadText accepted %q: %+v", in, tr)
		}
	}
}

// TestDecoderStreamsExactly: the compiled cursor streams exactly the
// encoded header and events, bare or behind a plain Reader (the shape of
// the event-replay oracle, whose type translation cannot see), and then
// sticks at io.EOF.
func TestDecoderStreamsExactly(t *testing.T) {
	tr := makeBarrierTrace(4, 3)
	tr.PhaseID("init")
	tr.PhaseID("solve")
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	ps, err := NewPatternSource(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := NewPatternSource(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hdr := ps.Header()
	if hdr.NumThreads != tr.NumThreads || len(hdr.Phases) != len(tr.Phases) || hdr.Phases[1] != "solve" {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	for name, r := range map[string]Reader{"cursor": ps, "wrapped": struct{ Reader }{wrapped}} {
		got, err := ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tr.Events) {
			t.Fatalf("%s: streamed %d events, want %d", name, len(got), len(tr.Events))
		}
		for i := range got {
			if got[i] != tr.Events[i] {
				t.Fatalf("%s: event %d: got %+v want %+v", name, i, got[i], tr.Events[i])
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("%s: after end: %v, want io.EOF", name, err)
			}
		}
	}
}

// TestSliceReaderAndCopy exercises the slice adapter, ReadAll's copy of
// a stream, and EncodedSize: the header WriteBinary2 writes, less its
// 4-byte pattern count, plus 37 bytes per event.
func TestSliceReaderAndCopy(t *testing.T) {
	tr := makeBarrierTrace(2, 2)
	tr.PhaseID("init")
	r := tr.Reader()
	if r.Len() != len(tr.Events) {
		t.Fatalf("Len() = %d, want %d", r.Len(), len(tr.Events))
	}
	got, err := ReadAll(r)
	if err != nil || len(got) != len(tr.Events) {
		t.Fatalf("ReadAll = %d events, %v", len(got), err)
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d: copied %+v, want %+v", i, got[i], tr.Events[i])
		}
	}
	if r.Len() != 0 {
		t.Fatalf("reader not drained: %d left", r.Len())
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("drained reader: %v, want io.EOF", err)
	}
	var head bytes.Buffer
	if err := WriteBinary2(&head, &Trace{NumThreads: tr.NumThreads, EventOverhead: tr.EventOverhead, Phases: tr.Phases}); err != nil {
		t.Fatal(err)
	}
	if got, want := EncodedSize(tr.Header(), len(tr.Events)), int64(head.Len()-4+37*len(tr.Events)); got != want {
		t.Fatalf("EncodedSize = %d, want %d", got, want)
	}
}

// TestPhaseIDManyPhases covers the map-backed intern: linear-time and
// first-seen-deterministic over a phase-heavy trace, including ids
// assigned behind PhaseID's back by direct Phases appends.
func TestPhaseIDManyPhases(t *testing.T) {
	const n = 20000
	tr := New(1)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("phase-%d", i)
		if id := tr.PhaseID(name); id != int64(i) {
			t.Fatalf("PhaseID(%q) = %d, want %d", name, id, i)
		}
	}
	// Duplicates resolve to the first-seen id.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		name := fmt.Sprintf("phase-%d", i)
		if id := tr.PhaseID(name); id != int64(i) {
			t.Fatalf("re-intern PhaseID(%q) = %d, want %d", name, id, i)
		}
	}
	if len(tr.Phases) != n {
		t.Fatalf("len(Phases) = %d, want %d", len(tr.Phases), n)
	}
	// A direct append (as the codecs do) must be observed, not shadowed.
	tr.Phases = append(tr.Phases, "external")
	if id := tr.PhaseID("external"); id != int64(n) {
		t.Fatalf("PhaseID(external) = %d, want %d", id, n)
	}
	if id := tr.PhaseID("phase-3"); id != 3 {
		t.Fatalf("after external append, PhaseID(phase-3) = %d", id)
	}
	// Duplicate names in the table: first occurrence wins, matching the
	// original linear scan.
	tr2 := &Trace{Phases: []string{"a", "b", "a"}}
	if id := tr2.PhaseID("a"); id != 0 {
		t.Fatalf("duplicate-table PhaseID(a) = %d, want 0", id)
	}
}

// TestPhaseIDMatchesLinearScan cross-checks the map intern against the
// original reference implementation on a mixed workload.
func TestPhaseIDMatchesLinearScan(t *testing.T) {
	linear := func(phases *[]string, name string) int64 {
		for i, p := range *phases {
			if p == name {
				return int64(i)
			}
		}
		*phases = append(*phases, name)
		return int64(len(*phases) - 1)
	}
	tr := New(1)
	var ref []string
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("p%d", i%37)
		want := linear(&ref, name)
		if got := tr.PhaseID(name); got != want {
			t.Fatalf("PhaseID(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestHeaderSharesMetadata pins the (cheap) contract of Trace.Header.
func TestHeaderSharesMetadata(t *testing.T) {
	tr := New(3)
	tr.EventOverhead = vtime.Time(42)
	tr.PhaseID("a")
	h := tr.Header()
	if h.NumThreads != 3 || h.EventOverhead != 42 || len(h.Phases) != 1 {
		t.Fatalf("Header() = %+v", h)
	}
}
