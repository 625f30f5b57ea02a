// Package trace defines the high-level event model of the extrapolation
// system, the in-memory trace container, stream codecs (binary and text),
// and summary statistics.
//
// A trace is the performance information PI of the paper: the ordered
// record of barrier and remote-access interactions of an n-thread program,
// plus the virtual time at which each occurred. The 1-processor
// measurement produces a single merged trace; trace translation produces
// one event list per thread; the simulator emits an extrapolated trace
// with the additional message-level events it models.
package trace

import (
	"fmt"

	"extrap/internal/vtime"
)

// Kind identifies the type of a trace event.
type Kind uint8

// Event kinds. The first group is recorded by the instrumented runtime;
// the second group appears only in extrapolated traces produced by the
// simulator.
const (
	// KindInvalid is the zero Kind and never appears in a valid trace.
	KindInvalid Kind = iota

	// KindThreadStart marks the beginning of a thread's execution.
	// Arg0 = total number of threads in the program.
	KindThreadStart
	// KindThreadEnd marks the end of a thread's execution.
	KindThreadEnd
	// KindBarrierEntry marks a thread arriving at global barrier Arg0.
	KindBarrierEntry
	// KindBarrierExit marks a thread leaving global barrier Arg0.
	KindBarrierExit
	// KindRemoteRead marks a read of a remote collection element.
	// Arg0 = owner thread, Arg1 = transfer size in bytes,
	// Arg2 = collection id (high 32 bits) and element index (low 32 bits).
	KindRemoteRead
	// KindRemoteWrite marks a write to a remote collection element
	// (the §5 extension of the paper). Arguments as for KindRemoteRead.
	KindRemoteWrite
	// KindPhaseBegin marks the start of a named program phase; Arg0 is an
	// index into the trace's phase-name table.
	KindPhaseBegin
	// KindPhaseEnd marks the end of a named program phase.
	KindPhaseEnd

	// KindMsgSend marks a simulated message leaving a processor.
	// Arg0 = destination thread, Arg1 = bytes, Arg2 = message tag.
	KindMsgSend
	// KindMsgRecv marks a simulated message arriving at a processor.
	// Arg0 = source thread, Arg1 = bytes, Arg2 = message tag.
	KindMsgRecv

	kindCount // number of kinds, for validation
)

var kindNames = [...]string{
	KindInvalid:      "invalid",
	KindThreadStart:  "thread-start",
	KindThreadEnd:    "thread-end",
	KindBarrierEntry: "barrier-entry",
	KindBarrierExit:  "barrier-exit",
	KindRemoteRead:   "remote-read",
	KindRemoteWrite:  "remote-write",
	KindPhaseBegin:   "phase-begin",
	KindPhaseEnd:     "phase-end",
	KindMsgSend:      "msg-send",
	KindMsgRecv:      "msg-recv",
}

// String returns the canonical lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindCount }

// KindFromString is the inverse of Kind.String; ok is false for unknown
// names.
func KindFromString(s string) (k Kind, ok bool) {
	for i, n := range kindNames {
		if n == s && Kind(i) != KindInvalid {
			return Kind(i), true
		}
	}
	return KindInvalid, false
}

// Event is one record in a trace. The meaning of the Arg fields depends on
// Kind (see the Kind constants). Events are small fixed-size values so
// traces of hundreds of thousands of events stay cheap.
type Event struct {
	Time   vtime.Time
	Kind   Kind
	Thread int32
	Arg0   int64
	Arg1   int64
	Arg2   int64
}

// PackRef packs a collection id and element index into a single int64 for
// Arg2 of remote access events.
func PackRef(collection, element int32) int64 {
	return int64(collection)<<32 | int64(uint32(element))
}

// UnpackRef is the inverse of PackRef.
func UnpackRef(ref int64) (collection, element int32) {
	return int32(ref >> 32), int32(uint32(ref))
}

// String renders the event in the text-codec line format.
func (e Event) String() string {
	return fmt.Sprintf("%d %s t%d %d %d %d",
		int64(e.Time), e.Kind, e.Thread, e.Arg0, e.Arg1, e.Arg2)
}

// IsRemote reports whether the event is a remote element access.
func (e Event) IsRemote() bool {
	return e.Kind == KindRemoteRead || e.Kind == KindRemoteWrite
}
