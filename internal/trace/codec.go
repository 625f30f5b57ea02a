package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"

	"extrap/internal/vtime"
)

// XTRP1, the flat binary trace format (all integers little-endian):
//
//	magic   [5]byte  "XTRP1"
//	threads uint32
//	ovh     int64    per-event instrumentation overhead (ns)
//	nphase  uint32
//	phases  nphase × (uint16 length, bytes)
//	nevents uint64
//	events  nevents × (int64 time, uint8 kind, int32 thread,
//	                   int64 arg0, int64 arg1, int64 arg2)
//
// XTRP2 (codec2.go) replaced it on every production path. ReadBinary
// stays so the CLI can read old trace files, and WriteBinary writes test
// fixtures.

var binaryMagic = [5]byte{'X', 'T', 'R', 'P', '1'}

// eventRecSize is the wire size of one event record.
const eventRecSize = 37

// appendEvent appends e's eventRecSize-byte record to b.
func appendEvent(b []byte, e *Event) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Thread))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Arg0))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Arg1))
	return binary.LittleEndian.AppendUint64(b, uint64(e.Arg2))
}

// getEvent decodes one event record from b.
func getEvent(b []byte) Event {
	return Event{
		Time:   intToTime(binary.LittleEndian.Uint64(b[0:8])),
		Kind:   Kind(b[8]),
		Thread: int32(binary.LittleEndian.Uint32(b[9:13])),
		Arg0:   int64(binary.LittleEndian.Uint64(b[13:21])),
		Arg1:   int64(binary.LittleEndian.Uint64(b[21:29])),
		Arg2:   int64(binary.LittleEndian.Uint64(b[29:37])),
	}
}

// errors returned by the codecs.
var (
	ErrBadMagic = errors.New("trace: bad magic (not an XTRP binary trace)")
)

// Hardening limits shared by both binary formats. Every header field is
// attacker-controlled until proven otherwise, so nothing may allocate
// proportionally to a header count before the corresponding bytes have
// actually been read.
const (
	// MaxThreads bounds the declared thread count. Thread ids are dense
	// per-thread state everywhere downstream (translation, simulation),
	// so an absurd count is rejected at decode time.
	MaxThreads = 1 << 20
	// MaxPhases bounds the phase-name table's entry count.
	MaxPhases = 1 << 16
	// MaxPhaseBytes bounds the cumulative size of all phase names.
	MaxPhaseBytes = 1 << 22
)

// MaxTraceEvents is the one bound on the events a trace may hold: 512
// MiB of Event. The request work budget does not bound events (a kernel
// records per iteration and per thread whatever its memory), so a trace
// is checked where it enters the program: the binary header parser
// refuses a declared count above it before parsing any op (an XTRP2
// repeat op lets a few bytes declare trillions), and the pcxx recorder
// fails a measurement that records more, as compose refuses to
// synthesize one.
const MaxTraceEvents = (1 << 29) / int64(unsafe.Sizeof(Event{}))

// ErrTraceTooLarge reports a measured trace past a bound: more than
// MaxTraceEvents events, or an encoding past an encoded cache's byte
// budget. The bound is a function of the program and its size, so the
// refusal is deterministic; serving layers map it to a
// payload-too-large response.
var ErrTraceTooLarge = errors.New("trace: measured trace too large")

// EncodedSize returns the exact number of bytes the XTRP1 encoding of a
// trace with this header and event count occupies — the flat baseline
// compression is measured against, cheap enough to run before encoding
// anything.
func EncodedSize(hdr Header, nevents int) int64 {
	n := int64(5 + 16 + 8) // magic + fixed header + event count
	for _, p := range hdr.Phases {
		n += 2 + int64(len(p))
	}
	return n + int64(nevents)*eventRecSize
}

// appendHeader appends the header both binary formats share — magic,
// thread count, overhead, phase table and event count — refusing
// metadata the decoders' caps would refuse.
func appendHeader(b []byte, magic [5]byte, hdr Header, nevents int) ([]byte, error) {
	if hdr.NumThreads < 0 || hdr.NumThreads > MaxThreads {
		return nil, fmt.Errorf("trace: thread count %d out of range [0,%d]", hdr.NumThreads, MaxThreads)
	}
	if len(hdr.Phases) > MaxPhases {
		return nil, fmt.Errorf("trace: phase count %d exceeds %d", len(hdr.Phases), MaxPhases)
	}
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(hdr.NumThreads))
	b = binary.LittleEndian.AppendUint64(b, uint64(hdr.EventOverhead))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr.Phases)))
	phaseBytes := 0
	for _, p := range hdr.Phases {
		if len(p) > 0xffff {
			return nil, fmt.Errorf("trace: phase name too long (%d bytes)", len(p))
		}
		if phaseBytes += len(p); phaseBytes > MaxPhaseBytes {
			return nil, fmt.Errorf("trace: phase table exceeds %d bytes", MaxPhaseBytes)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	return binary.LittleEndian.AppendUint64(b, uint64(nevents)), nil
}

// WriteBinary encodes the trace to w in the XTRP1 format.
func WriteBinary(w io.Writer, t *Trace) error {
	hdr := t.Header()
	b, err := appendHeader(make([]byte, 0, EncodedSize(hdr, len(t.Events))), binaryMagic, hdr, len(t.Events))
	if err != nil {
		return err
	}
	for i := range t.Events {
		b = appendEvent(b, &t.Events[i])
	}
	_, err = w.Write(b)
	return err
}

// ReadBinary decodes a whole XTRP1 trace from enc. Every record is
// validated: its kind must be defined and its thread id must lie in
// [0, NumThreads). The event slice is allocated only once the records
// it holds are known to be present, so a forged count costs nothing.
func ReadBinary(enc []byte) (*Trace, error) {
	w := &wireReader{b: enc}
	hdr, declare, err := w.header(binaryMagic)
	if err != nil {
		return nil, err
	}
	if have := uint64(len(w.b) / eventRecSize); have < declare {
		return nil, fmt.Errorf("trace: event %d: %w", have, io.ErrUnexpectedEOF)
	}
	t := &Trace{NumThreads: hdr.NumThreads, EventOverhead: hdr.EventOverhead, Phases: hdr.Phases}
	t.Events = make([]Event, declare)
	for i := range t.Events {
		e := getEvent(w.b[i*eventRecSize:])
		if !e.Kind.Valid() {
			return nil, fmt.Errorf("trace: event %d has invalid kind %d", i, byte(e.Kind))
		}
		if e.Thread < 0 || int(e.Thread) >= hdr.NumThreads {
			return nil, fmt.Errorf("trace: event %d thread %d out of range [0,%d)", i, e.Thread, hdr.NumThreads)
		}
		t.Events[i] = e
	}
	return t, nil
}

// Text trace format: a small header followed by one event per line,
// human-readable and diff-friendly:
//
//	#xtrp text 1
//	#threads 8
//	#overhead 250
//	#phase 0 init
//	<time-ns> <kind> t<thread> <arg0> <arg1> <arg2>

// WriteText encodes the trace to w in the line-oriented text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#xtrp text 1")
	fmt.Fprintf(bw, "#threads %d\n", t.NumThreads)
	fmt.Fprintf(bw, "#overhead %d\n", int64(t.EventOverhead))
	for i, p := range t.Phases {
		fmt.Fprintf(bw, "#phase %d %s\n", i, p)
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a text-format trace from r.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseTextHeader(t, line); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			continue
		}
		e, err := parseTextEvent(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.NumThreads == 0 {
		return nil, errors.New("trace: missing #threads header")
	}
	if t.NumThreads < 0 || t.NumThreads > MaxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", t.NumThreads)
	}
	// The #threads header may appear anywhere, so thread ids are checked
	// once the count is known — mirroring the binary decoder's rule.
	for i, e := range t.Events {
		if e.Thread < 0 || int(e.Thread) >= t.NumThreads {
			return nil, fmt.Errorf("trace: event %d thread %d out of range [0,%d)", i, e.Thread, t.NumThreads)
		}
	}
	return t, nil
}

func parseTextHeader(t *Trace, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "#xtrp":
		return nil
	case "#threads":
		if len(fields) != 2 {
			return errors.New("malformed #threads header")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		t.NumThreads = n
	case "#overhead":
		if len(fields) != 2 {
			return errors.New("malformed #overhead header")
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return err
		}
		t.EventOverhead = intToTime(uint64(v))
	case "#phase":
		if len(fields) < 3 {
			return errors.New("malformed #phase header")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		// The id sizes the phase table, so it is as untrusted as the
		// binary header counts: a single "#phase 9999999999 x" line must
		// not demand a giant allocation.
		if id < 0 || id >= MaxPhases {
			return fmt.Errorf("trace: phase id %d out of range [0,%d)", id, MaxPhases)
		}
		for len(t.Phases) <= id {
			t.Phases = append(t.Phases, "")
		}
		t.Phases[id] = strings.Join(fields[2:], " ")
	default:
		// Unknown headers are ignored for forward compatibility.
	}
	return nil
}

func parseTextEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 6 {
		return Event{}, fmt.Errorf("want 6 fields, got %d", len(fields))
	}
	ts, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad timestamp: %w", err)
	}
	kind, ok := KindFromString(fields[1])
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", fields[1])
	}
	if !strings.HasPrefix(fields[2], "t") {
		return Event{}, fmt.Errorf("bad thread field %q", fields[2])
	}
	th, err := strconv.Atoi(fields[2][1:])
	if err != nil {
		return Event{}, fmt.Errorf("bad thread id: %w", err)
	}
	var args [3]int64
	for i := 0; i < 3; i++ {
		args[i], err = strconv.ParseInt(fields[3+i], 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad arg%d: %w", i, err)
		}
	}
	return Event{
		Time:   intToTime(uint64(ts)),
		Kind:   kind,
		Thread: int32(th),
		Arg0:   args[0],
		Arg1:   args[1],
		Arg2:   args[2],
	}, nil
}

func intToTime(v uint64) vtime.Time { return vtime.Time(v) }
