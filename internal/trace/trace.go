package trace

import (
	"fmt"
	"sort"

	"extrap/internal/vtime"
)

// Trace is an in-memory event trace together with the metadata needed to
// interpret it: the number of program threads, the per-event
// instrumentation overhead of the measurement (used by translation for
// perturbation compensation), and the phase-name table referenced by
// phase events.
type Trace struct {
	// NumThreads is the number of threads of the traced program.
	NumThreads int
	// EventOverhead is the instrumentation cost that the measurement
	// charged for recording each event; translation subtracts it from
	// inter-event deltas.
	EventOverhead vtime.Time
	// Phases maps phase ids (Arg0 of phase events) to names.
	Phases []string
	// Events holds the records in timestamp order (merged across threads
	// for a 1-processor measurement).
	Events []Event

	// phaseIdx maps phase names to their ids for O(1) interning;
	// phaseSynced is the Phases length the index reflects, so direct
	// appends to Phases (codecs and translation write it directly)
	// trigger a rebuild instead of serving stale ids.
	phaseIdx    map[string]int64
	phaseSynced int
}

// New returns an empty trace for n threads.
func New(n int) *Trace {
	return &Trace{NumThreads: n}
}

// Append adds an event to the trace.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// PhaseID interns a phase name, returning its id. Ids are assigned in
// first-seen order, and a duplicate name always resolves to its first
// id, exactly as the original linear scan did — but each intern is O(1),
// so phase-heavy measurements stay linear instead of quadratic.
func (t *Trace) PhaseID(name string) int64 {
	if t.phaseIdx == nil || t.phaseSynced != len(t.Phases) {
		// First intern, or Phases was appended to externally: (re)build
		// the index from the table, first occurrence winning.
		t.phaseIdx = make(map[string]int64, len(t.Phases)+1)
		for i, p := range t.Phases {
			if _, ok := t.phaseIdx[p]; !ok {
				t.phaseIdx[p] = int64(i)
			}
		}
		t.phaseSynced = len(t.Phases)
	}
	if id, ok := t.phaseIdx[name]; ok {
		return id
	}
	t.Phases = append(t.Phases, name)
	id := int64(len(t.Phases) - 1)
	t.phaseIdx[name] = id
	t.phaseSynced = len(t.Phases)
	return id
}

// PhaseName returns the name for a phase id, or a placeholder if unknown.
func (t *Trace) PhaseName(id int64) string {
	if id >= 0 && int(id) < len(t.Phases) {
		return t.Phases[id]
	}
	return fmt.Sprintf("phase(%d)", id)
}

// SortByTime stably sorts events by timestamp, preserving the relative
// order of equal-time events (which encodes scheduler order on the
// 1-processor run).
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		return t.Events[i].Time < t.Events[j].Time
	})
}

// PerThread splits the merged event list into per-thread lists, preserving
// order. The result has NumThreads entries; threads with no events get an
// empty (non-nil) slice.
func (t *Trace) PerThread() [][]Event {
	out := make([][]Event, t.NumThreads)
	for i := range out {
		out[i] = []Event{}
	}
	for _, e := range t.Events {
		if int(e.Thread) < 0 || int(e.Thread) >= t.NumThreads {
			continue
		}
		out[e.Thread] = append(out[e.Thread], e)
	}
	return out
}

// Validate checks structural invariants of a measurement trace:
// timestamps non-decreasing, thread ids in range, barrier events well
// formed (every barrier entered exactly once per thread, entries before
// exits, barrier ids dense and increasing per thread).
func (t *Trace) Validate() error {
	if t.NumThreads <= 0 {
		return fmt.Errorf("trace: NumThreads = %d, want > 0", t.NumThreads)
	}
	var last vtime.Time
	nextBarrier := make([]int64, t.NumThreads) // next expected barrier id per thread
	inBarrier := make([]bool, t.NumThreads)
	for i, e := range t.Events {
		if !e.Kind.Valid() {
			return fmt.Errorf("trace: event %d has invalid kind %d", i, e.Kind)
		}
		if e.Time < last {
			return fmt.Errorf("trace: event %d time %v precedes previous %v", i, e.Time, last)
		}
		last = e.Time
		if int(e.Thread) < 0 || int(e.Thread) >= t.NumThreads {
			return fmt.Errorf("trace: event %d thread %d out of range [0,%d)", i, e.Thread, t.NumThreads)
		}
		th := int(e.Thread)
		switch e.Kind {
		case KindBarrierEntry:
			if inBarrier[th] {
				return fmt.Errorf("trace: event %d: thread %d enters barrier %d while already in a barrier", i, th, e.Arg0)
			}
			if e.Arg0 != nextBarrier[th] {
				return fmt.Errorf("trace: event %d: thread %d enters barrier %d, want %d", i, th, e.Arg0, nextBarrier[th])
			}
			inBarrier[th] = true
		case KindBarrierExit:
			if !inBarrier[th] {
				return fmt.Errorf("trace: event %d: thread %d exits barrier %d without entering", i, th, e.Arg0)
			}
			if e.Arg0 != nextBarrier[th] {
				return fmt.Errorf("trace: event %d: thread %d exits barrier %d, want %d", i, th, e.Arg0, nextBarrier[th])
			}
			inBarrier[th] = false
			nextBarrier[th]++
		case KindRemoteRead, KindRemoteWrite:
			if e.Arg1 < 0 {
				return fmt.Errorf("trace: event %d: negative transfer size %d", i, e.Arg1)
			}
			if e.Arg0 < 0 || int(e.Arg0) >= t.NumThreads {
				return fmt.Errorf("trace: event %d: owner thread %d out of range", i, e.Arg0)
			}
		}
	}
	for th, b := range inBarrier {
		if b {
			return fmt.Errorf("trace: thread %d still inside barrier %d at end of trace", th, nextBarrier[th])
		}
	}
	// All threads must have completed the same number of barriers: the
	// data-parallel model has only global barriers.
	for th := 1; th < t.NumThreads; th++ {
		if nextBarrier[th] != nextBarrier[0] {
			return fmt.Errorf("trace: thread %d completed %d barriers, thread 0 completed %d",
				th, nextBarrier[th], nextBarrier[0])
		}
	}
	return nil
}

// Duration reports the timestamp of the last event (the 1-processor
// virtual execution time for a measurement trace).
func (t *Trace) Duration() vtime.Time {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time
}
