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

// errors returned by the codecs.
var (
	ErrBadMagic = errors.New("trace: bad magic (not an XTRP binary trace)")
)

// Hardening limits on trace metadata, shared by the binary and text
// decoders. Every header field is attacker-controlled until proven
// otherwise, so nothing may allocate proportionally to a header count
// before the corresponding bytes have actually been read.
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

// eventRecSize is the size of one flat fixed-width event record: an
// int64 time, a kind byte, an int32 thread and three int64 args.
const eventRecSize = 37

// EncodedSize returns the flat fixed-record baseline that compression
// is measured against: the binary trace header (what WriteBinary2
// writes up to its pattern count) plus eventRecSize bytes per event. It
// is cheap enough to run before encoding anything.
func EncodedSize(hdr Header, nevents int) int64 {
	n := int64(5 + 16 + 8) // magic + fixed header + event count
	for _, p := range hdr.Phases {
		n += 2 + int64(len(p))
	}
	return n + int64(nevents)*eventRecSize
}

// appendHeader appends the XTRP2 header — magic, thread count,
// overhead, phase table and event count — refusing metadata the
// decoder's caps would refuse.
func appendHeader(b []byte, hdr Header, nevents int) ([]byte, error) {
	if hdr.NumThreads < 0 || hdr.NumThreads > MaxThreads {
		return nil, fmt.Errorf("trace: thread count %d out of range [0,%d]", hdr.NumThreads, MaxThreads)
	}
	if len(hdr.Phases) > MaxPhases {
		return nil, fmt.Errorf("trace: phase count %d exceeds %d", len(hdr.Phases), MaxPhases)
	}
	b = append(b, binary2Magic[:]...)
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
