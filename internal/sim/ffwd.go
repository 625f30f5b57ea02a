package sim

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Steady-state fast-forward: when a compiled trace is replaying a
// pattern body over and over and the whole pipeline's state at one
// iteration boundary is a pure per-timescale time-shift of its state a
// fixed number of iterations earlier, the engine's dynamics are
// invariant under that shift — every comparison it makes is within one
// timescale, and cross-scale interactions go through differences only.
// Two matching snapshots therefore prove the next chunk of iterations
// will replay the same trajectory shifted again, and induction extends
// that to all remaining whole chunks: the kernel applies j× the learned
// deltas in O(state) instead of O(j · events) and resumes event-by-event
// replay for the tail. Any snapshot disagreement — structural change,
// non-uniform stride — means the loop is not (yet) steady and replay
// simply continues event by event, so predictions are byte-identical to
// event-by-event replay by construction.
//
// The fingerprint/shift traversals here mirror each other slot for
// slot, as do their counterparts in internal/translate and the decoder
// cursor in internal/trace. Every engine field is accounted for: either
// fingerprinted, provably dead (stale values guarded by state tags,
// pushed as zero sentinels and left unshifted), or deliberately
// excluded with a normalization argument (seq/gen are compared only
// against each other, so pending entries are fingerprinted relative to
// their moving counters and neither counter is shifted on skip —
// relative order and equality are preserved, and absolute values are
// never output).

// ffBarWindow matches translate's: barrier records below the last two
// ids are provably never read again (exiting barrier b requires all
// threads entered b, so entering b+1 pins every thread at id ≥ b), so
// the engine keeps only this many records (the barrier ring), and they
// are what is fingerprinted and relocated on skip. A power of two.
const ffBarWindow = 4

const (
	// ffMinRepLeft is the minimum iterations still owed before
	// fast-forward is worth attempting: below it, two snapshots plus a
	// replayed tail leave almost nothing to skip.
	ffMinRepLeft = 4
	// ffMaxPeriod is the largest steady-state period (in pattern
	// iterations) probed from one base snapshot. Engine state is often
	// periodic with a small multiple of the trace period — rotating
	// communication partners permute message slab labels with
	// the rotation's order — so the base is held and the comparison
	// spacing grows 1, 2, …, ffMaxPeriod before the base is rolled
	// forward (a mismatch at spacing m also escapes start-up transients
	// once the base moves).
	ffMaxPeriod = 8
	// ffMaxFails abandons an op instance after this many total
	// fingerprint mismatches — roughly two full period sweeps — when the
	// loop body is genuinely state-mutating, not steady, and
	// re-fingerprinting every boundary would be pure overhead.
	ffMaxFails = 18
	// ffSnapSpacing spaces snapshots at least this many body rows apart
	// so tiny bodies don't fingerprint every handful of events.
	ffSnapSpacing = 64
	// ffMaxSkipSteps caps the extrapolated step count of one skip just
	// above the engine's event budget: any skip reaching it means
	// event-by-event replay would have exhausted the budget anyway, and
	// the clamp keeps the arithmetic far from overflow.
	ffMaxSkipSteps = 1 << 30
)

// Fingerprint size estimate, in slots, from sizes the pipeline already
// holds (see fpSlots). The per-item counts follow the traversals below,
// rounded up: a thread is 22 engine slots, its current event among them,
// plus 5 in translate, a processor about 5 plus its NI queue front in
// each network, a future event 6 plus 6 for the message it may carry, a
// buffered translated event 6; the fixed part covers the decoder
// registers, the barrier windows, the scalars and the next event to fire.
const (
	ffSlotsPerThread  = 28
	ffSlotsPerProc    = 7
	ffSlotsPerFEL     = 12
	ffSlotsPerPending = 6
	ffSlotsFixed      = 128
)

// Fast-forward telemetry, process-wide (mirrors the codec's compression
// counters; surfaced on /debug/vars by the serving layer).
var (
	ffAttempts     atomic.Uint64
	ffFastForwards atomic.Uint64
	ffItersSkipped atomic.Uint64
	ffFallbacks    atomic.Uint64
)

// ReplayCounters is a snapshot of the fast-forward telemetry.
type ReplayCounters struct {
	// Attempts counts fingerprint comparisons.
	Attempts uint64
	// FastForwards counts successful O(1) skips.
	FastForwards uint64
	// IterationsSkipped totals the pattern iterations advanced by skips.
	IterationsSkipped uint64
	// Fallbacks counts fingerprint mismatches that forced event-by-event
	// replay to continue.
	Fallbacks uint64
}

// ReadReplayCounters returns the process-wide fast-forward telemetry.
func ReadReplayCounters() ReplayCounters {
	return ReplayCounters{
		Attempts:          ffAttempts.Load(),
		FastForwards:      ffFastForwards.Load(),
		IterationsSkipped: ffItersSkipped.Load(),
		Fallbacks:         ffFallbacks.Load(),
	}
}

// NeverFastForwards reports whether no streaming run over ct, on any
// machine, can attempt a fast-forward, judged from the repeat program
// alone. An attempt compares two snapshots of one repeat op taken at
// least stride iterations apart (ffSnapSpacing), with at least
// ffMinRepLeft iterations still owed and as many rows owed as the
// fingerprint has slots (fpSlots) at the second. The first snapshot
// owes at most the op's count, and fpSlots is at least
// ffSlotsPerThread·n + ffSlotsPerProc + ffSlotsFixed at n threads, so
// an op can be attempted only if count − stride ≥ ffMinRepLeft and
// (count − stride) · bodyLen reaches that bound. The answer depends only
// on ct, never on the config.
func NeverFastForwards(ct *trace.CompiledTrace) bool {
	minSlots := uint64(ffSlotsPerThread*ct.Header().NumThreads + ffSlotsPerProc + ffSlotsFixed)
	for i := 0; i < ct.Ops(); i++ {
		count, bodyLen := ct.Op(i)
		if bodyLen == 0 {
			continue
		}
		stride := uint64(1)
		if bodyLen < ffSnapSpacing {
			stride = uint64((ffSnapSpacing + bodyLen - 1) / bodyLen)
		}
		if count >= stride+ffMinRepLeft && (count-stride)*uint64(bodyLen) >= minSlots {
			return false
		}
	}
	return true
}

// ffState orchestrates fast-forward for one streaming simulation. It
// lives in the arena, so its fingerprint buffers are reused run to run.
type ffState struct {
	src *translate.Stream
	cur *trace.PatternSource

	fpA, fpB trace.ReplayFingerprint
	deltas   trace.ReplayDeltas

	lastIters uint64 // iteration count at the last observation
	haveSnap  bool
	snapIters uint64 // iteration count at fpA
	snapSteps int    // engine steps at fpA
	snapOp    int    // repeat-op instance fpA belongs to
	fails     int
	abandoned bool
	attempts  int // fingerprint comparisons this run

	scratch fpScratch
}

// fpScratch is the engine fingerprint's working memory, kept across
// probes so a snapshot allocates nothing once the buffers have grown:
// the message rename table (indexed by slab slot, holding rename+1 so
// zero means unseen, and zeroed again after every walk), and the slots
// in first-encounter order.
type fpScratch struct {
	rename    []int64
	encounter []int32
}

// engage arms fast-forward for a run when the source pipeline exposes
// its compiled pattern cursor, keeping the buffers of earlier runs; it
// returns nil otherwise.
func (ff *ffState) engage(cfg *Config, src *translate.Stream) *ffState {
	if src == nil || cfg.EmitTrace {
		return nil
	}
	cur := src.PatternSource()
	if cur == nil {
		return nil
	}
	*ff = ffState{
		src:     src,
		cur:     cur,
		snapOp:  -1,
		fpA:     ff.fpA,
		fpB:     ff.fpB,
		deltas:  ff.deltas,
		scratch: ff.scratch,
	}
	return ff
}

// release drops the run's pipeline references, keeping the buffers.
func (ff *ffState) release() { ff.src, ff.cur = nil, nil }

// observe runs at the top of the engine event loop. When the decoder
// has crossed one or more pattern-iteration boundaries since the last
// call, it snapshots the pipeline and — once two snapshots match as a
// pure time-shift — skips all but the tail of the remaining iterations,
// returning the extrapolated step count so the budget check and the
// cancellation poll cadence stay byte-aligned with event replay. The
// context is additionally polled right after every skip, keeping
// worst-case cancellation latency at the regular poll bound even when
// skips dwarf the event count between polls.
func (ff *ffState) observe(ctx context.Context, e *engine, steps int) (int, error) {
	it := ff.cur.IterationsCompleted()
	if it == ff.lastIters {
		return steps, nil
	}
	ff.lastIters = it
	opIdx, bodyLen, repLeft, ok := ff.cur.RepeatState()
	if !ok {
		ff.haveSnap = false
		return steps, nil
	}
	if opIdx != ff.snapOp {
		ff.snapOp = opIdx
		ff.haveSnap = false
		ff.fails = 0
		ff.abandoned = false
	}
	if ff.abandoned || repLeft < ffMinRepLeft {
		return steps, nil
	}
	// Pay as you go: a snapshot is worth taking only while the repeat
	// still owes at least as many rows as the fingerprint pushes slots,
	// the most a skip from here could save against what it costs.
	slots := e.fpSlots()
	if repLeft*uint64(bodyLen) < uint64(slots) {
		return steps, nil
	}
	stride := uint64(1)
	if bodyLen < ffSnapSpacing {
		stride = uint64((ffSnapSpacing + bodyLen - 1) / bodyLen)
	}
	if !ff.haveSnap {
		ff.fpA.Reset()
		ff.fpA.Grow(slots)
		if ff.appendAll(e, &ff.fpA) {
			ff.haveSnap = true
			ff.snapIters = it
			ff.snapSteps = steps
		}
		return steps, nil
	}
	m := it - ff.snapIters
	if m < stride {
		return steps, nil
	}
	ff.fpB.Reset()
	ff.fpB.Grow(slots)
	if !ff.appendAll(e, &ff.fpB) {
		ff.haveSnap = false
		return steps, nil
	}
	ffAttempts.Add(1)
	ff.attempts++
	if !trace.DiffFingerprints(&ff.fpA, &ff.fpB, &ff.deltas) {
		ffFallbacks.Add(1)
		if ff.fails++; ff.fails >= ffMaxFails {
			ff.abandoned = true
			ff.haveSnap = false
			return steps, nil
		}
		if m >= ffMaxPeriod {
			ff.rollSnapshot(it, steps)
		}
		return steps, nil
	}
	ff.fails = 0

	// How many whole m-iteration chunks can be skipped: at least one
	// iteration of the repeat must remain (SkipIterations' contract, and
	// the tail is replayed event by event through the op exit), every
	// fingerprinted time slot must stay far from overflow, and the
	// extrapolated step count must stay within clamping range.
	dSteps := steps - ff.snapSteps
	if dSteps < 1 {
		dSteps = 1
	}
	j := (repLeft - 1) / m
	if max := trace.MaxShiftChunks(&ff.fpB, &ff.deltas); j > max {
		j = max
	}
	if max := uint64(ffMaxSkipSteps / dSteps); j > max {
		j = max
	}
	if j < 1 {
		ff.rollSnapshot(it, steps)
		return steps, nil
	}
	k := j * m
	if err := ff.cur.SkipIterations(k); err != nil {
		// Unreachable given the bounds above; degrade to event replay.
		ffFallbacks.Add(1)
		ff.abandoned = true
		ff.haveSnap = false
		return steps, nil
	}
	ff.deltas.ResetAccum()
	ff.src.ApplyReplayShift(int64(j), &ff.deltas)
	e.applyReplayShift(int64(j), &ff.deltas)
	steps += int(j) * dSteps
	ffFastForwards.Add(1)
	ffItersSkipped.Add(k)
	ff.haveSnap = false
	ff.lastIters = ff.cur.IterationsCompleted()
	if err := ctx.Err(); err != nil {
		return steps, fmt.Errorf("sim: aborted after %d events: %w", steps, err)
	}
	return steps, nil
}

// rollSnapshot makes the just-taken fpB the new base snapshot.
func (ff *ffState) rollSnapshot(it uint64, steps int) {
	ff.fpA, ff.fpB = ff.fpB, ff.fpA
	ff.snapIters = it
	ff.snapSteps = steps
}

// appendAll fingerprints the whole pipeline, decoder → translate →
// engine, in the fixed traversal order the shift application mirrors.
func (ff *ffState) appendAll(e *engine, fp *trace.ReplayFingerprint) bool {
	ff.cur.AppendFingerprint(fp)
	if !ff.src.AppendReplayFingerprint(fp) {
		return false
	}
	return e.appendReplayFingerprint(fp, &ff.scratch)
}

// fpSlots estimates the slot count of one appendAll. A thread's current
// event is in its ffSlotsPerThread; every other translated event it has
// buffered, in its own buffer or queued in the stream, is pending. The
// event list's front event is in ffSlotsFixed.
func (e *engine) fpSlots() int {
	pending := e.src.Pending()
	for i := range e.threads {
		if t := &e.threads[i]; t.hasCur() {
			pending += len(t.evs) - t.pos - 1
		}
	}
	return ffSlotsPerThread*e.n + ffSlotsPerProc*e.nprocs + ffSlotsPerFEL*max(0, len(e.fel.pending())-1) +
		ffSlotsPerPending*pending + ffSlotsFixed
}

// --- engine fingerprint -----------------------------------------------------

// appendReplayFingerprint appends the engine's live state to fp,
// reporting false when the engine is in a state fast-forward must not
// touch (sticky source error, or trace emission enabled).
//
// Three normalizations make the fingerprint insensitive to semantically
// inert state. First, the future event list is kept in (at, seq) order,
// the only order pops see, so its layout is canonical already. Second,
// message slab indices are opaque handles (used only for slab
// addressing and noMsg checks, never compared or output), so they are
// renamed to canonical first-encounter order along the list, and the
// slab free list — which only decides what name the next allocation
// gets — is fingerprinted by length alone. Third, a thread's unread
// events are pushed as one sequence, its own buffer's then the stream's
// queue, since where the last refill split them never matters. Steady
// states that differ only by slab naming or buffer split are
// behaviorally identical, and the shift application is name- and
// split-independent, so skipping from such a state is exact.
func (e *engine) appendReplayFingerprint(fp *trace.ReplayFingerprint, sc *fpScratch) bool {
	if e.fail != nil || e.out != nil {
		return false
	}
	now := e.now

	// Msg-handle renaming, computed up front so every section (service
	// queues included) uses the same naming.
	pending := e.fel.pending()
	if len(sc.rename) < e.msgs.used {
		sc.rename = make([]int64, e.msgs.used)
	}
	rename := sc.rename
	encounter := slices.Grow(sc.encounter[:0], e.msgs.used)
	visit := func(mi int32) {
		if mi == noMsg {
			return
		}
		if rename[mi] == 0 {
			encounter = append(encounter, mi)
			rename[mi] = int64(len(encounter))
		}
	}
	for i := range pending {
		visit(pending[i].msg)
	}
	for i := range e.procs {
		for _, mi := range e.procs[i].svcQueue {
			visit(mi)
		}
	}
	rid := func(mi int32) int64 {
		if mi == noMsg {
			return -1
		}
		return rename[mi] - 1
	}
	fp.Push(trace.FPSim, int64(now))
	fp.Push(trace.FPExact, int64(e.done))
	fp.Push(trace.FPAccum, int64(e.nbars))
	for i := range e.threads {
		t := &e.threads[i]
		fp.Push(trace.FPExact, int64(t.state))
		own, queued := t.evs[t.pos:], e.src.Queued(i)
		fp.Push(trace.FPExact, int64(len(own)+len(queued)))
		for k := range own {
			translate.PushEvent(fp, &own[k])
		}
		for k := range queued {
			translate.PushEvent(fp, &queued[k])
		}
		fp.Push(trace.FPTrans, int64(t.prevT))
		// Stale-by-state fields are pushed as zero sentinels and never
		// shifted: their values are only read while the tagging state
		// holds, so dead content is behaviorally irrelevant — but the
		// state tag itself is exact, so liveness can't flip unnoticed.
		if t.state == tsComputing {
			fp.Push(trace.FPSim, int64(t.segEnd))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		fp.Push(trace.FPExact, int64(t.pureLeft)) // duration: shift-invariant
		if t.state == tsWaitReply || t.state == tsWaitBarrier {
			fp.Push(trace.FPSim, int64(t.blockAt))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		if t.state == tsWaitCPU {
			fp.Push(trace.FPSim, int64(t.readyAt))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		st := &t.stats
		fp.Push(trace.FPAccum, int64(st.Compute))
		fp.Push(trace.FPAccum, int64(st.CommWait))
		fp.Push(trace.FPAccum, int64(st.BarrierWait))
		fp.Push(trace.FPAccum, int64(st.Service))
		fp.Push(trace.FPAccum, int64(st.CPUWait))
		fp.Push(trace.FPAccum, st.RemoteReads)
		fp.Push(trace.FPAccum, st.RemoteWrites)
		fp.Push(trace.FPAccum, st.Barriers)
		fp.Push(trace.FPAccum, int64(st.Finish))
	}
	for i := range e.procs {
		p := &e.procs[i]
		fp.Push(trace.FPExact, int64(p.current))
		fp.Push(trace.FPExact, int64(p.last))
		fp.Push(trace.FPExact, int64(len(p.runq)))
		for _, id := range p.runq {
			fp.Push(trace.FPExact, int64(id))
		}
		fp.Push(trace.FPExact, int64(len(p.svcQueue)))
		for _, mi := range p.svcQueue {
			fp.Push(trace.FPExact, rid(mi))
		}
		if p.svcBusyUntil > now {
			fp.Push(trace.FPSim, int64(p.svcBusyUntil))
		} else {
			fp.Push(trace.FPExact, 0)
		}
	}
	fp.Push(trace.FPExact, int64(len(pending)))
	for i := range pending {
		e.pushFelEvent(fp, &pending[i], rid)
	}
	fp.Push(trace.FPBarID, e.barHi)
	tree := e.cfg.Barrier.Algorithm == TreeBarrier
	for id := max(0, e.barHi-ffBarWindow); id < e.barHi; id++ {
		if b := &e.bars[id&barMask]; b.used && b.id == id {
			pushBarSt(fp, b, tree)
		} else {
			pushBarSt(fp, &barSt{}, false) // never touched
		}
	}
	fp.Push(trace.FPExact, int64(e.msgs.used))
	fp.Push(trace.FPExact, int64(len(e.msgs.free)))
	for _, mi := range encounter {
		m := e.msgs.at(mi)
		fp.Push(trace.FPExact, int64(m.kind))
		fp.Push(trace.FPExact, int64(m.src))
		fp.Push(trace.FPExact, int64(m.dst))
		fp.Push(trace.FPExact, m.bytes)
		if m.kind == mBarArrive || m.kind == mBarRelease {
			fp.Push(trace.FPBarID, m.barrier)
		} else {
			fp.Push(trace.FPExact, m.barrier)
		}
		fp.PushBool(m.delivered)
	}
	pushNet(fp, e.inter, now)
	fp.PushBool(e.intra != nil)
	if e.intra != nil {
		pushNet(fp, e.intra, now)
	}
	for _, mi := range encounter {
		rename[mi] = 0
	}
	sc.encounter = encounter
	return true
}

// pushFelEvent appends one scheduled event. seq and gen are compared
// only against their own counters, so they are fingerprinted relative
// to them (and the counters themselves are neither fingerprinted nor
// shifted): a skip leaves relative order and gen-validity untouched,
// which is all the engine ever reads. The msg handle is pushed under
// its canonical rename (see appendReplayFingerprint).
func (e *engine) pushFelEvent(fp *trace.ReplayFingerprint, ev *event, rid func(int32) int64) {
	fp.Push(trace.FPSim, int64(ev.at))
	fp.Push(trace.FPExact, int64(ev.seq)-int64(e.fel.nextSq))
	if ev.kind == evMsgArrive {
		fp.Push(trace.FPExact, 0) // message events carry no generation
	} else {
		fp.Push(trace.FPExact, int64(ev.gen)-int64(e.threads[ev.thread].gen))
	}
	fp.Push(trace.FPExact, int64(ev.thread))
	fp.Push(trace.FPExact, rid(ev.msg))
	fp.Push(trace.FPExact, int64(ev.kind))
}

// pushBarSt appends one barrier record of the tail window; tree says
// whether it carries tree tables. Time fields are on the FPBarS stride:
// in a steady barrier loop the window slides (slot w names barrier id+Δ
// next time, values advance with the clock), in a barrier-free loop it
// freezes (stride 0) — both are uniform.
func pushBarSt(fp *trace.ReplayFingerprint, b *barSt, tree bool) {
	fp.PushBool(b.used)
	if b.used {
		fp.Push(trace.FPBarID, b.id)
	} else {
		fp.Push(trace.FPExact, 0)
	}
	fp.Push(trace.FPExact, int64(b.entries))
	pushBarTime(fp, b.maxArrive)
	fp.PushBool(b.masterEntered)
	pushBarTime(fp, b.masterFreeAt)
	fp.Push(trace.FPExact, int64(b.arrivedMsgs))
	pushBarTime(fp, b.lastArrProc)
	fp.PushBool(b.released)
	fp.PushBool(tree)
	if !tree {
		return
	}
	for i := range b.childGot {
		fp.Push(trace.FPExact, int64(b.childGot[i]))
		fp.PushBool(b.nodeEntered[i])
		pushBarTime(fp, b.nodeFreeAt[i])
		fp.PushBool(b.releaseSent[i])
	}
}

func pushBarTime(fp *trace.ReplayFingerprint, v vtime.Time) {
	if v == 0 {
		fp.Push(trace.FPExact, 0)
	} else {
		fp.Push(trace.FPBarS, int64(v))
	}
}

// pushNet appends one network's state: the in-flight population and any
// still-busy NI queue fronts are live; drained queue fronts (≤ now) are
// dead sentinels; the traffic totals are write-only accumulators.
func pushNet(fp *trace.ReplayFingerprint, n *network.Network, now vtime.Time) {
	fp.Push(trace.FPExact, int64(n.InFlight()))
	for _, t := range n.RecvFree() {
		if t > now {
			fp.Push(trace.FPSim, int64(t))
		} else {
			fp.Push(trace.FPExact, 0)
		}
	}
	fp.Push(trace.FPAccum, n.Messages)
	fp.Push(trace.FPAccum, n.Bytes)
	fp.Push(trace.FPAccum, int64(n.TotalTransit))
	fp.Push(trace.FPAccum, int64(n.ContentionAdd))
	fp.Push(trace.FPAccum, int64(n.QueueingAdd))
	fp.Push(trace.FPExact, int64(n.MaxInFlight))
}

// walkLiveMsgs visits every live message slot exactly once per holder:
// the future event list, then the per-processor service queues. Dead slots (on the free list) are never
// visited. Only the shift application uses it, and per-message shifts
// are order-independent; the fingerprint walks messages in canonical
// encounter order instead.
func (e *engine) walkLiveMsgs(f func(m *message)) {
	pending := e.fel.pending()
	for i := range pending {
		if mi := pending[i].msg; mi != noMsg {
			f(e.msgs.at(mi))
		}
	}
	for i := range e.procs {
		for _, mi := range e.procs[i].svcQueue {
			f(e.msgs.at(mi))
		}
	}
}

// --- engine shift -----------------------------------------------------------

// applyReplayShift advances the engine by j chunks of the learned
// deltas, mirroring appendReplayFingerprint slot for slot (accumulator
// strides are consumed in push order).
func (e *engine) applyReplayShift(j int64, d *trace.ReplayDeltas) {
	now := e.now // pre-shift anchor for the liveness conditionals
	dSim := vtime.Time(j * d.Sim)
	dTrans := vtime.Time(j * d.Trans)
	e.now += dSim
	e.nbars += int(j * d.NextAccum())
	for i := range e.threads {
		t := &e.threads[i]
		translate.ShiftEvents(t.evs[t.pos:], j, d)
		t.prevT += dTrans
		if t.state == tsComputing {
			t.segEnd += dSim
		}
		if t.state == tsWaitReply || t.state == tsWaitBarrier {
			t.blockAt += dSim
		}
		if t.state == tsWaitCPU {
			t.readyAt += dSim
		}
		st := &t.stats
		st.Compute += vtime.Time(j * d.NextAccum())
		st.CommWait += vtime.Time(j * d.NextAccum())
		st.BarrierWait += vtime.Time(j * d.NextAccum())
		st.Service += vtime.Time(j * d.NextAccum())
		st.CPUWait += vtime.Time(j * d.NextAccum())
		st.RemoteReads += j * d.NextAccum()
		st.RemoteWrites += j * d.NextAccum()
		st.Barriers += j * d.NextAccum()
		st.Finish += vtime.Time(j * d.NextAccum())
	}
	for i := range e.procs {
		p := &e.procs[i]
		if p.svcBusyUntil > now {
			p.svcBusyUntil += dSim
		}
	}
	pending := e.fel.pending()
	for i := range pending {
		pending[i].at += dSim
	}
	e.shiftBars(j, d)
	e.walkLiveMsgs(func(m *message) {
		if m.kind == mBarArrive || m.kind == mBarRelease {
			m.barrier += j * d.Bar
		}
	})
	shiftNet(e.inter, j, d, now)
	if e.intra != nil {
		shiftNet(e.intra, j, d, now)
	}
}

// shiftBars slides the barrier window by j×Δbar ids: the ring rotates
// so every window record lands on its new id's slot, carrying its tree
// tables, and its id and times advance. Records already below the window
// are disarmed — provably never read again (see ffBarWindow), exactly
// like the records the skipped iterations would have left behind.
func (e *engine) shiftBars(j int64, d *trace.ReplayDeltas) {
	grow := j * d.Bar
	lo := e.barHi - ffBarWindow
	old := e.bars
	for k := range old {
		b := old[k]
		if b.used && b.id >= lo {
			shiftBarSt(&b, j, d)
		} else {
			b.used = false
		}
		e.bars[(int64(k)+grow)&barMask] = b
	}
	e.barHi += grow
}

func shiftBarSt(b *barSt, j int64, d *trace.ReplayDeltas) {
	dBarS := vtime.Time(j * d.BarS)
	if b.used {
		b.id += j * d.Bar
	}
	if b.maxArrive != 0 {
		b.maxArrive += dBarS
	}
	if b.masterFreeAt != 0 {
		b.masterFreeAt += dBarS
	}
	if b.lastArrProc != 0 {
		b.lastArrProc += dBarS
	}
	for i := range b.nodeFreeAt {
		if b.nodeFreeAt[i] != 0 {
			b.nodeFreeAt[i] += dBarS
		}
	}
}

func shiftNet(n *network.Network, j int64, d *trace.ReplayDeltas, now vtime.Time) {
	dSim := vtime.Time(j * d.Sim)
	rf := n.RecvFree()
	for i := range rf {
		if rf[i] > now {
			rf[i] += dSim
		}
	}
	n.Messages += j * d.NextAccum()
	n.Bytes += j * d.NextAccum()
	n.TotalTransit += vtime.Time(j * d.NextAccum())
	n.ContentionAdd += vtime.Time(j * d.NextAccum())
	n.QueueingAdd += vtime.Time(j * d.NextAccum())
}
