package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"extrap/internal/vtime"
)

// makeBarrierTrace builds a well-formed measurement trace: n threads, b
// barriers, with per-thread compute gaps and one remote read between
// consecutive barriers.
func makeBarrierTrace(n, b int) *Trace {
	t := New(n)
	clock := vtime.Time(0)
	for th := 0; th < n; th++ {
		t.Append(Event{Time: clock, Kind: KindThreadStart, Thread: int32(th), Arg0: int64(n)})
	}
	for bar := 0; bar < b; bar++ {
		for th := 0; th < n; th++ {
			clock += vtime.Time(100 * (th + 1))
			t.Append(Event{Time: clock, Kind: KindRemoteRead, Thread: int32(th),
				Arg0: int64((th + 1) % n), Arg1: 64, Arg2: PackRef(1, int32(bar))})
			clock += 50
			t.Append(Event{Time: clock, Kind: KindBarrierEntry, Thread: int32(th), Arg0: int64(bar)})
		}
		for th := 0; th < n; th++ {
			t.Append(Event{Time: clock, Kind: KindBarrierExit, Thread: int32(th), Arg0: int64(bar)})
		}
	}
	for th := 0; th < n; th++ {
		clock += 10
		t.Append(Event{Time: clock, Kind: KindThreadEnd, Thread: int32(th)})
	}
	return t
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	tr := makeBarrierTrace(4, 3)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v on well-formed trace", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	base := makeBarrierTrace(2, 1)
	mutations := map[string]func(*Trace){
		"time regression": func(tr *Trace) {
			tr.Events[3].Time = 0
			tr.Events[2].Time = 1e9
		},
		"thread out of range": func(tr *Trace) { tr.Events[0].Thread = 99 },
		"invalid kind":        func(tr *Trace) { tr.Events[0].Kind = Kind(200) },
		"double entry": func(tr *Trace) {
			for i := range tr.Events {
				if tr.Events[i].Kind == KindBarrierExit {
					tr.Events[i].Kind = KindBarrierEntry
					break
				}
			}
		},
		"exit without entry": func(tr *Trace) {
			for i := range tr.Events {
				if tr.Events[i].Kind == KindBarrierEntry {
					tr.Events[i].Kind = KindRemoteRead
					tr.Events[i].Arg1 = 8
					break
				}
			}
		},
		"negative transfer size": func(tr *Trace) {
			for i := range tr.Events {
				if tr.Events[i].Kind == KindRemoteRead {
					tr.Events[i].Arg1 = -5
					break
				}
			}
		},
		"owner out of range": func(tr *Trace) {
			for i := range tr.Events {
				if tr.Events[i].Kind == KindRemoteRead {
					tr.Events[i].Arg0 = 57
					break
				}
			}
		},
	}
	for name, mutate := range mutations {
		tr := &Trace{NumThreads: base.NumThreads, EventOverhead: base.EventOverhead, Phases: base.Phases, Events: append([]Event(nil), base.Events...)}
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted malformed trace", name)
		}
	}
}

func TestValidateRejectsUnbalancedBarriers(t *testing.T) {
	tr := New(2)
	tr.Append(Event{Time: 0, Kind: KindBarrierEntry, Thread: 0, Arg0: 0})
	tr.Append(Event{Time: 1, Kind: KindBarrierExit, Thread: 0, Arg0: 0})
	// Thread 1 never participates in barrier 0.
	if err := tr.Validate(); err == nil {
		t.Error("Validate() accepted trace where threads completed different barrier counts")
	}
}

func TestPerThread(t *testing.T) {
	tr := makeBarrierTrace(3, 2)
	per := tr.PerThread()
	if len(per) != 3 {
		t.Fatalf("PerThread() returned %d lists", len(per))
	}
	total := 0
	for th, evs := range per {
		total += len(evs)
		var last vtime.Time
		for _, e := range evs {
			if int(e.Thread) != th {
				t.Fatalf("thread %d list contains event of thread %d", th, e.Thread)
			}
			if e.Time < last {
				t.Fatalf("per-thread order broken")
			}
			last = e.Time
		}
	}
	if total != len(tr.Events) {
		t.Fatalf("PerThread dropped events: %d != %d", total, len(tr.Events))
	}
}

func TestPhaseInterning(t *testing.T) {
	tr := New(1)
	a := tr.PhaseID("init")
	b := tr.PhaseID("solve")
	a2 := tr.PhaseID("init")
	if a != a2 {
		t.Errorf("PhaseID not idempotent: %d vs %d", a, a2)
	}
	if a == b {
		t.Errorf("distinct phases share id %d", a)
	}
	if tr.PhaseName(a) != "init" || tr.PhaseName(b) != "solve" {
		t.Error("PhaseName mismatch")
	}
	if !strings.Contains(tr.PhaseName(99), "99") {
		t.Error("unknown phase name should embed id")
	}
}

func TestPackUnpackRef(t *testing.T) {
	f := func(c, e int32) bool {
		gc, ge := UnpackRef(PackRef(c, e))
		return gc == c && ge == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	tr := makeBarrierTrace(4, 5)
	s := ComputeStats(tr)
	if s.Barriers != 5 {
		t.Errorf("Barriers = %d, want 5", s.Barriers)
	}
	if s.RemoteReads != 4*5 {
		t.Errorf("RemoteReads = %d, want 20", s.RemoteReads)
	}
	if s.RemoteBytes != 4*5*64 {
		t.Errorf("RemoteBytes = %d, want %d", s.RemoteBytes, 4*5*64)
	}
	if s.Events != len(tr.Events) {
		t.Errorf("Events = %d, want %d", s.Events, len(tr.Events))
	}
	if s.Duration != tr.Duration() {
		t.Errorf("Duration = %v, want %v", s.Duration, tr.Duration())
	}
	// Remote accesses rotate owners evenly in the fixture.
	for o, c := range s.RemoteByOwner {
		if c != 5 {
			t.Errorf("RemoteByOwner[%d] = %d, want 5", o, c)
		}
	}
	if !strings.Contains(s.String(), "barriers=5") {
		t.Errorf("Stats.String() = %q missing barrier count", s.String())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := makeBarrierTrace(8, 4)
	tr.EventOverhead = 250
	tr.PhaseID("setup")
	tr.PhaseID("solve phase")
	var buf bytes.Buffer
	if err := WriteBinary2(&buf, tr); err != nil {
		t.Fatalf("WriteBinary2: %v", err)
	}
	got, err := ReadBinary2(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadBinary2: %v", err)
	}
	assertTraceEqual(t, tr, got)
}

func TestTextRoundTrip(t *testing.T) {
	tr := makeBarrierTrace(3, 2)
	tr.EventOverhead = 100
	tr.PhaseID("multi word phase")
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v\ninput:\n%s", err, buf.String())
	}
	assertTraceEqual(t, tr, got)
}

func assertTraceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.NumThreads != want.NumThreads {
		t.Fatalf("NumThreads = %d, want %d", got.NumThreads, want.NumThreads)
	}
	if got.EventOverhead != want.EventOverhead {
		t.Fatalf("EventOverhead = %v, want %v", got.EventOverhead, want.EventOverhead)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("Phases = %v, want %v", got.Phases, want.Phases)
	}
	for i := range want.Phases {
		if got.Phases[i] != want.Phases[i] {
			t.Fatalf("Phases[%d] = %q, want %q", i, got.Phases[i], want.Phases[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("len(Events) = %d, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("Events[%d] = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary2([]byte("not a trace file")); err == nil {
		t.Error("ReadBinary2 accepted garbage")
	}
	if _, err := ReadBinary2(nil); err == nil {
		t.Error("ReadBinary2 accepted empty input")
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	bad := []string{
		"#threads 2\n12 not-a-kind t0 0 0 0\n",
		"#threads 2\n12 barrier-entry x0 0 0 0\n",
		"#threads 2\nabc barrier-entry t0 0 0 0\n",
		"#threads 2\n12 barrier-entry t0 0 0\n",
		"0 barrier-entry t0 0 0 0\n", // no #threads header
	}
	for i, s := range bad {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: ReadText accepted %q", i, s)
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(times []uint32, kinds []uint8, threads []uint8) bool {
		n := len(times)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(threads) < n {
			n = len(threads)
		}
		// A start per thread backs the header's 256 threads, so the
		// random thread ids below span 0–255.
		tr := New(256)
		for th := int32(0); th < 256; th++ {
			tr.Append(Event{Kind: KindThreadStart, Thread: th, Arg0: 256})
		}
		var clock vtime.Time
		for i := 0; i < n; i++ {
			clock += vtime.Time(times[i] % 10000)
			k := Kind(kinds[i]%uint8(kindCount-1)) + 1
			tr.Append(Event{
				Time: clock, Kind: k, Thread: int32(threads[i]),
				Arg0: int64(times[i]), Arg1: int64(kinds[i]), Arg2: int64(threads[i]),
			})
		}
		var buf bytes.Buffer
		if err := WriteBinary2(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary2(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindThreadStart; k < kindCount; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString accepted bogus name")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestSortByTimeStable(t *testing.T) {
	tr := New(2)
	tr.Append(Event{Time: 10, Kind: KindBarrierEntry, Thread: 0})
	tr.Append(Event{Time: 5, Kind: KindRemoteRead, Thread: 1, Arg1: 1})
	tr.Append(Event{Time: 10, Kind: KindBarrierEntry, Thread: 1})
	tr.SortByTime()
	if tr.Events[0].Time != 5 {
		t.Fatal("sort did not order by time")
	}
	if tr.Events[1].Thread != 0 || tr.Events[2].Thread != 1 {
		t.Fatal("sort not stable for equal timestamps")
	}
}

func TestDurationEmpty(t *testing.T) {
	if New(1).Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestWriteSDDF(t *testing.T) {
	tr := makeBarrierTrace(3, 2)
	tr.PhaseID("solve")
	var buf bytes.Buffer
	if err := WriteSDDF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"SDDF-A", `"barrier-entry" {`, `"remote-read" {`,
		`double	"timestamp";`, "};;", "/* phase 0: solve */",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SDDF missing %q", want)
		}
	}
	// One data record per event.
	records := strings.Count(out, " };;")
	if records != len(tr.Events) {
		t.Errorf("SDDF has %d data records, want %d", records, len(tr.Events))
	}
}

func TestEventClassifiers(t *testing.T) {
	if !(Event{Kind: KindRemoteRead}).IsRemote() || !(Event{Kind: KindRemoteWrite}).IsRemote() {
		t.Error("remote events must be remote")
	}
	if (Event{Kind: KindMsgSend}).IsRemote() {
		t.Error("msg-send is not a remote element access")
	}
}

func TestStatsCountsWritesAndMsgs(t *testing.T) {
	tr := New(2)
	tr.Append(Event{Time: 0, Kind: KindRemoteWrite, Thread: 0, Arg0: 1, Arg1: 32})
	tr.Append(Event{Time: 1, Kind: KindMsgSend, Thread: 0, Arg0: 1, Arg1: 100})
	tr.Append(Event{Time: 2, Kind: KindMsgRecv, Thread: 1, Arg0: 0, Arg1: 100})
	s := ComputeStats(tr)
	if s.RemoteWrites != 1 || s.RemoteBytes != 32 {
		t.Errorf("writes=%d bytes=%d", s.RemoteWrites, s.RemoteBytes)
	}
	if s.MsgSends != 1 || s.MsgBytes != 100 {
		t.Errorf("msgs=%d bytes=%d", s.MsgSends, s.MsgBytes)
	}
	if !strings.Contains(s.String(), "msgs=1") {
		t.Errorf("String() = %q", s.String())
	}
}
