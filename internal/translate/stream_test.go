package translate

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// streamTestTrace measures a mid-size program with barriers, remote
// reads, and phases — enough structure to exercise every translation
// rule.
func streamTestTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	cfg := pcxx.DefaultConfig(n)
	cfg.EventOverhead = 100 * vtime.Nanosecond
	rt := pcxx.NewRuntime(cfg)
	c := pcxx.PerThread[float64](rt, "x", 64)
	tr, err := rt.Run(func(th *pcxx.Thread) {
		for it := 0; it < 5; it++ {
			th.Phase("iter", func() {
				th.Compute(vtime.Time(th.ID()+1) * 10 * vtime.Microsecond)
				if th.ID() > 0 {
					_ = c.Read(th, th.ID()-1)
				}
			})
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// drainStream reads every thread's cursor fully, in the given order of
// thread visits (a permutation strategy), returning per-thread events.
func drainStream(t *testing.T, s *Stream, order string) [][]trace.Event {
	t.Helper()
	out := make([][]trace.Event, s.NumThreads())
	for i := range out {
		out[i] = []trace.Event{}
	}
	switch order {
	case "sequential": // thread 0 fully first — maximum buffering skew
		for i := 0; i < s.NumThreads(); i++ {
			evs, err := trace.ReadAll(s.Thread(i))
			if err != nil {
				t.Fatalf("thread %d: %v", i, err)
			}
			out[i] = append(out[i], evs...)
		}
	case "roundrobin":
		cursors := make([]trace.Reader, s.NumThreads())
		done := make([]bool, s.NumThreads())
		for i := range cursors {
			cursors[i] = s.Thread(i)
		}
		for remaining := s.NumThreads(); remaining > 0; {
			for i, c := range cursors {
				if done[i] {
					continue
				}
				e, err := c.Next()
				if err == io.EOF {
					done[i] = true
					remaining--
					continue
				}
				if err != nil {
					t.Fatalf("thread %d: %v", i, err)
				}
				out[i] = append(out[i], e)
			}
		}
	default:
		t.Fatalf("unknown order %q", order)
	}
	return out
}

// TestStreamMatchesTranslate: the streamed per-thread events must be
// identical to the batch translation regardless of consumption order.
func TestStreamMatchesTranslate(t *testing.T) {
	tr := streamTestTrace(t, 4)
	pt, err := Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []string{"sequential", "roundrobin"} {
		s, err := NewStream(tr.Header(), tr.Reader(), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainStream(t, s, order)
		for th := range pt.Threads {
			if len(got[th]) != len(pt.Threads[th]) {
				t.Fatalf("%s: thread %d: %d events, want %d", order, th, len(got[th]), len(pt.Threads[th]))
			}
			for i := range got[th] {
				if got[th][i] != pt.Threads[th][i] {
					t.Fatalf("%s: thread %d event %d: got %+v want %+v",
						order, th, i, got[th][i], pt.Threads[th][i])
				}
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("%s: Drain: %v", order, err)
		}
		if s.Barriers() != pt.Barriers {
			t.Errorf("%s: Barriers = %d, want %d", order, s.Barriers(), pt.Barriers)
		}
		if s.Duration() != pt.Duration() {
			t.Errorf("%s: Duration = %v, want %v", order, s.Duration(), pt.Duration())
		}
		if s.SourceDuration() != tr.Duration() {
			t.Errorf("%s: SourceDuration = %v, want %v", order, s.SourceDuration(), tr.Duration())
		}
	}
}

// TestStreamOverDecoder: streaming translation composed with the
// streaming binary decoder — the full bounded-memory front end — matches
// the in-memory path.
func TestStreamOverDecoder(t *testing.T) {
	tr := streamTestTrace(t, 3)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(d.Header(), d, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, s, "roundrobin")
	pt, err := Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for th := range pt.Threads {
		if len(got[th]) != len(pt.Threads[th]) {
			t.Fatalf("thread %d: %d events, want %d", th, len(got[th]), len(pt.Threads[th]))
		}
		for i := range got[th] {
			if got[th][i] != pt.Threads[th][i] {
				t.Fatalf("thread %d event %d mismatch", th, i)
			}
		}
	}
}

// TestStreamRejectsMalformed: the inline validation must catch the same
// violations Trace.Validate catches, including the end-of-trace checks,
// and Translate (which shares the per-event step) must reject every
// case with the same error.
func TestStreamRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		evs  []trace.Event
		want string
	}{
		{
			"time travel",
			[]trace.Event{
				{Time: 10, Kind: trace.KindThreadStart, Thread: 0},
				{Time: 5, Kind: trace.KindThreadEnd, Thread: 0},
			},
			"precedes previous",
		},
		{
			"thread out of range",
			[]trace.Event{{Time: 1, Kind: trace.KindThreadStart, Thread: 7}},
			"out of range",
		},
		{
			"exit without entry",
			[]trace.Event{{Time: 1, Kind: trace.KindBarrierExit, Thread: 0}},
			"without entering",
		},
		{
			"stuck in barrier",
			[]trace.Event{{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0}},
			"still inside barrier",
		},
		{
			"negative transfer",
			[]trace.Event{{Time: 1, Kind: trace.KindRemoteRead, Thread: 0, Arg0: 0, Arg1: -4}},
			"negative transfer size",
		},
		{
			"invalid kind",
			[]trace.Event{{Time: 1, Kind: 0xee, Thread: 0}},
			"invalid kind",
		},
		{
			"owner out of range",
			[]trace.Event{{Time: 1, Kind: trace.KindRemoteWrite, Thread: 0, Arg0: 2, Arg1: 8}},
			"owner thread 2 out of range",
		},
		{
			"barrier id skipped",
			[]trace.Event{{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0, Arg0: 1}},
			"want 0",
		},
		{
			"re-entry inside a barrier",
			[]trace.Event{
				{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0},
				{Time: 2, Kind: trace.KindBarrierEntry, Thread: 0},
			},
			"while already in a barrier",
		},
		{
			"exit of the wrong barrier",
			[]trace.Event{
				{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0},
				{Time: 2, Kind: trace.KindBarrierEntry, Thread: 1},
				{Time: 3, Kind: trace.KindBarrierExit, Thread: 0, Arg0: 1},
			},
			"exits barrier 1, want 0",
		},
		{
			"exit before all entered",
			[]trace.Event{
				{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0},
				{Time: 2, Kind: trace.KindBarrierExit, Thread: 0},
			},
			"before all",
		},
		{
			"thread left inside a barrier",
			[]trace.Event{
				{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0},
				{Time: 2, Kind: trace.KindBarrierEntry, Thread: 1},
				{Time: 3, Kind: trace.KindBarrierExit, Thread: 0},
				{Time: 4, Kind: trace.KindBarrierExit, Thread: 1},
				{Time: 5, Kind: trace.KindBarrierEntry, Thread: 0, Arg0: 1},
				{Time: 6, Kind: trace.KindBarrierEntry, Thread: 1, Arg0: 1},
				{Time: 7, Kind: trace.KindBarrierExit, Thread: 1, Arg0: 1},
			},
			"still inside barrier",
		},
	}
	for _, tc := range cases {
		if _, err := Translate(&trace.Trace{NumThreads: 2, Events: tc.evs}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Translate = %v, want error containing %q", tc.name, err, tc.want)
		}
		s, err := NewStream(trace.Header{NumThreads: 2}, trace.NewSliceReader(tc.evs), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		err = s.Drain()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Drain = %v, want error containing %q", tc.name, err, tc.want)
		}
		// The sticky error must surface on the cursors too, after any
		// already-buffered events are served.
		c := s.Thread(0)
		var err2 error
		for i := 0; i < len(tc.evs)+1; i++ {
			if _, err2 = c.Next(); err2 != nil {
				break
			}
		}
		if err2 == nil || err2 == io.EOF {
			t.Errorf("%s: cursor surfaced %v, want the stream error", tc.name, err2)
		}
	}
}

// TestStreamUnbalancedBarriers: a barrier exit before all threads have
// entered is rejected exactly as in the batch path.
func TestStreamUnbalancedBarriers(t *testing.T) {
	evs := []trace.Event{
		{Time: 1, Kind: trace.KindBarrierEntry, Thread: 0},
		{Time: 2, Kind: trace.KindBarrierExit, Thread: 0},
	}
	s, err := NewStream(trace.Header{NumThreads: 2}, trace.NewSliceReader(evs), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil || !strings.Contains(err.Error(), "before all") {
		t.Fatalf("Drain = %v, want barrier-exit error", err)
	}
}

// TestStreamMaxPending: the buffering guard trips when the consumer's
// skew exceeds the configured cap.
func TestStreamMaxPending(t *testing.T) {
	tr := streamTestTrace(t, 4)
	s, err := NewStream(tr.Header(), tr.Reader(), StreamOptions{MaxPending: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Draining thread 3 first forces all earlier threads' events to
	// buffer, blowing the 3-event cap immediately.
	_, err = trace.ReadAll(s.Thread(3))
	if err == nil || !strings.Contains(err.Error(), "cap 3") {
		t.Fatalf("ReadAll = %v, want MaxPending error", err)
	}
}

// TestStreamRejectsZeroThreads mirrors Validate's NumThreads check.
func TestStreamRejectsZeroThreads(t *testing.T) {
	if _, err := NewStream(trace.Header{}, trace.NewSliceReader(nil), StreamOptions{}); err == nil {
		t.Fatal("NewStream accepted 0 threads")
	}
}

// TestReleaseDropsSource: a released stream waits in a pool, so it must
// not keep the source, the compiled trace behind it or the phase table
// reachable.
func TestReleaseDropsSource(t *testing.T) {
	tr := streamTestTrace(t, 4)
	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, tr); err != nil {
		t.Fatal(err)
	}
	ps, err := trace.NewPatternSource(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(ps.Header(), ps, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.PatternSource() != ps {
		t.Fatal("stream does not expose its compiled-trace source")
	}
	if _, err := trace.ReadAll(s.Thread(0)); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if s.src != nil || s.ps != nil || s.phases != nil || s.err != nil {
		t.Errorf("released stream still holds src %v, ps %v, phases %v, err %v", s.src, s.ps, s.phases, s.err)
	}
}
