package translate

import (
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Steady-state fast-forward support: the simulator fingerprints the
// whole pipeline — decoder, this stream, the event kernel — at pattern
// iteration boundaries, and when two snapshots differ only by uniform
// per-timescale shifts it skips the intervening work wholesale. This
// file is the translate layer's contribution: its live state as
// fingerprint slots, and the matching shift application. The two
// traversals must mirror each other exactly (same slots, same order),
// or skips would corrupt state instead of advancing it.

// ffBarWindow is how many of the most recent barrier records the
// translator keeps (its barrier ring), fingerprints and relocates on
// skip. Exits are only valid for a barrier all n threads have entered,
// and entering barrier b means the thread exited b-1, which required
// all threads to have entered b-1 — so every future access lands on one
// of the last two records. Keeping four gives slack; a power of two.
const ffBarWindow = 4

// PatternSource returns the compiled-trace cursor feeding this stream,
// or nil when the source is anything else. Fast-forward only engages
// when the loop structure is available.
func (s *Stream) PatternSource() *trace.PatternSource { return s.ps }

// AppendReplayFingerprint appends the translator's live state to fp. It
// reports false when the stream is in a state fast-forward must not
// touch (sticky error or exhausted source). The buffered events are not
// part of it: they are the consumer's next events, and the consumer
// fingerprints each thread's handed-out and queued (Queued) events as
// one sequence, so where Refill last split them cannot matter.
func (s *Stream) AppendReplayFingerprint(fp *trace.ReplayFingerprint) bool {
	if s.err != nil || s.srcDone {
		return false
	}
	fp.Push(trace.FPOrig, int64(s.x.lastTime))
	fp.Push(trace.FPTrans, int64(s.x.maxTranslated))
	fp.Push(trace.FPAccum, int64(s.x.idx))
	for i := range s.x.threads {
		t := &s.x.threads[i]
		fp.Push(trace.FPBarID, t.nextBarrier)
		fp.PushBool(t.inBarrier)
		fp.Push(trace.FPOrig, int64(t.lastOrig))
		fp.Push(trace.FPTrans, int64(t.lastTranslated))
		fp.PushBool(t.started)
	}
	fp.Push(trace.FPBarID, s.x.barHi)
	for id := max(0, s.x.barHi-ffBarWindow); id < s.x.barHi; id++ {
		b := &s.x.barriers[id&barMask]
		if !b.used || b.id != id {
			b = &barrierState{} // never entered
		}
		fp.Push(trace.FPExact, int64(b.entries))
		if b.release == 0 {
			fp.Push(trace.FPExact, 0)
		} else {
			fp.Push(trace.FPBarT, int64(b.release))
		}
	}
	return true
}

// ApplyReplayShift advances the stream's state by j chunks of the
// learned per-chunk deltas, exactly as replaying j more chunks event by
// event would have left it: the translator state AppendReplayFingerprint
// pushes, and the queued events. The consumer shifts the events it
// holds.
func (s *Stream) ApplyReplayShift(j int64, d *trace.ReplayDeltas) {
	s.x.lastTime += vtime.Time(j * d.Orig)
	s.x.maxTranslated += vtime.Time(j * d.Trans)
	s.x.idx += int(j * d.NextAccum())
	for i := range s.x.threads {
		t := &s.x.threads[i]
		t.nextBarrier += j * d.Bar
		t.lastOrig += vtime.Time(j * d.Orig)
		t.lastTranslated += vtime.Time(j * d.Trans)
		ShiftEvents(s.bufs[i].fill, j, d)
	}
	// Slide the barrier window by j×Δbar ids: each window record moves to
	// its new id's ring slot with its release advanced. Records already
	// below the window are disarmed — provably never read again (see
	// ffBarWindow), like the records the skipped iterations leave behind.
	grow := j * d.Bar
	lo := s.x.barHi - ffBarWindow
	old := s.x.barriers
	s.x.barriers = [ffBarWindow]barrierState{}
	for _, b := range old {
		if !b.used || b.id < lo {
			continue
		}
		b.id += grow
		if b.release != 0 {
			b.release += vtime.Time(j * d.BarT)
		}
		s.x.barriers[b.id&barMask] = b
	}
	s.x.barHi += grow
}

// PushEvent appends one buffered translated event: its time on the
// translated scale, a barrier id on the barrier-id scale, everything else
// exact. ShiftEvents is its shift.
func PushEvent(fp *trace.ReplayFingerprint, e *trace.Event) {
	fp.Push(trace.FPTrans, int64(e.Time))
	fp.Push(trace.FPExact, int64(e.Kind))
	fp.Push(trace.FPExact, int64(e.Thread))
	if e.Kind == trace.KindBarrierEntry || e.Kind == trace.KindBarrierExit {
		fp.Push(trace.FPBarID, e.Arg0)
	} else {
		fp.Push(trace.FPExact, e.Arg0)
	}
	fp.Push(trace.FPExact, e.Arg1)
	fp.Push(trace.FPExact, e.Arg2)
}

// ShiftEvents advances buffered translated events by j chunks of the
// learned deltas, mirroring PushEvent.
func ShiftEvents(evs []trace.Event, j int64, d *trace.ReplayDeltas) {
	for k := range evs {
		e := &evs[k]
		e.Time += vtime.Time(j * d.Trans)
		if e.Kind == trace.KindBarrierEntry || e.Kind == trace.KindBarrierExit {
			e.Arg0 += j * d.Bar
		}
	}
}
