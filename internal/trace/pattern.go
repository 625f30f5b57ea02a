package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"extrap/internal/vtime"
)

// Pattern-native replay: the XTRP2 pattern table and replay program as a
// first-class IR instead of a transient decoder detail.
//
// A CompiledTrace is the one parsed form of an XTRP2 stream: the pattern
// table, the per-body delta sums, and the op program are parsed once and
// survive to the simulation layer, where a PatternSource cursor replays
// them. The cursor is an ordinary validated event stream, and it also
// supports O(1) iteration skipping — the delta state machine is linear,
// so advancing k whole body iterations is k × (per-body delta sums),
// whatever mid-body position the cursor is at (a full cycle from any
// rotation sums the same rows). Behind a plain Reader wrapper, which
// hides the skipping, the same cursor is the event-replay oracle that
// fast-forward is checked against.
//
// The ReplayFingerprint machinery at the bottom is the safety net the
// simulator's steady-state fast-forward is built on: every layer of the
// pipeline appends its live state as (class, value) slots, and two
// fingerprints taken m iterations apart must agree exactly on
// structural slots and advance uniformly per timescale on time-like
// slots before any skipping happens.

// CompiledTrace is an eagerly parsed XTRP2 stream: header, pattern
// table, per-pattern delta sums, and the replay program. It is
// immutable after CompileBinary and safe to share across any number of
// concurrently replaying PatternSource cursors, until Release.
type CompiledTrace struct {
	hdr      Header
	declare  uint64
	patterns [][]row
	sums     []bodySums
	prog     []compiledOp
	// lits holds every literal run's rows, materialized so replay never
	// re-parses wire bytes, back to back in program order.
	lits []row
	// slab is the row storage patterns and lits are carved from.
	slab []row
}

// compiledTraces recycles released compiled traces: their row slabs and
// table slices. Rows hold no pointers, so a slab need not be cleared.
var compiledTraces = sync.Pool{New: func() any { return new(CompiledTrace) }}

// compiledOp is one program op: count replays of pattern id, or, when
// id is literalOp, the next count rows of the literal runs.
type compiledOp struct {
	count uint64
	id    uint32
}

// literalOp marks a literal-run op (pattern ids stay below MaxPatterns).
const literalOp = ^uint32(0)

// bodySums is the per-iteration advance a pattern body applies to the
// delta state machine: summed over the body's rows, per kind/arg for
// the arg contexts. Rotation-invariant, so it is also the advance of
// one full cycle starting mid-body.
type bodySums struct {
	dTime, dThread int64
	dArgs          [kindCount][3]int64
}

// IsXTRP2 reports whether enc begins with the XTRP2 magic.
func IsXTRP2(enc []byte) bool { return bytes.HasPrefix(enc, binary2Magic[:]) }

// CompileBinary parses a whole XTRP2 stream (magic included) into a
// CompiledTrace, straight from the bytes, with every row carved from one
// slab that holds all the rows the bytes can. It is the only XTRP2
// parser: the header caps (MaxTraceEvents among them), the pattern-table
// caps and every op's bound against the declared event count are
// checked here, so no event is expanded from a stream that fails them.
// Thread ids depend on the delta state, so a PatternSource checks them
// as it replays. Trailing bytes past the program are ignored. The
// CompiledTrace does not retain enc. Its storage comes from a pool of
// released ones when the pool has any.
func CompileBinary(enc []byte) (*CompiledTrace, error) {
	ct := compiledTraces.Get().(*CompiledTrace)
	if err := ct.compile(enc); err != nil {
		ct.Release()
		return nil, err
	}
	return ct, nil
}

// Release returns the compiled trace's storage to the pool for a later
// CompileBinary. Neither it nor any cursor over it may be used
// afterwards; events already read from them stay valid.
func (ct *CompiledTrace) Release() {
	clear(ct.patterns)
	ct.hdr, ct.lits = Header{}, nil
	compiledTraces.Put(ct)
}

// compile parses enc into ct, reusing ct's storage.
func (ct *CompiledTrace) compile(enc []byte) error {
	slab := ct.slab
	if need := len(enc) / minWireRow; cap(slab) < need {
		slab = make([]row, 0, need)
	}
	*ct = CompiledTrace{
		patterns: ct.patterns[:0],
		sums:     ct.sums[:0],
		prog:     ct.prog[:0],
		slab:     slab[:0],
	}
	w := &wireReader{b: enc, slab: ct.slab}
	hdr, declare, err := w.header()
	if err != nil {
		return err
	}
	ct.hdr, ct.declare = hdr, declare
	if ct.patterns, err = w.patternTable(ct.patterns); err != nil {
		return err
	}
	ct.sums = slices.Grow(ct.sums, len(ct.patterns))[:len(ct.patterns)]
	clear(ct.sums)
	for i, body := range ct.patterns {
		s := &ct.sums[i]
		for j := range body {
			rw := &body[j]
			s.dTime += rw.dTime
			s.dThread += rw.dThread
			s.dArgs[rw.kind][0] += rw.dA0
			s.dArgs[rw.kind][1] += rw.dA1
			s.dArgs[rw.kind][2] += rw.dA2
		}
	}

	// Literal runs are carved from the slab in program order, right after
	// the pattern bodies, so together they are one contiguous run.
	lits := w.slab
	produced := uint64(0)
	for produced < ct.declare {
		literal, id, count, err := w.op(produced, ct.declare, ct.patterns)
		if err != nil {
			return err
		}
		if !literal {
			ct.prog = append(ct.prog, compiledOp{id: id, count: count})
			produced += count * uint64(len(ct.patterns[id]))
			continue
		}
		if _, j, err := w.rows(count); err != nil {
			return fmt.Errorf("trace: event %d: %w", produced+j, eofErr(err))
		}
		ct.prog = append(ct.prog, compiledOp{id: literalOp, count: count})
		produced += count
	}
	n := cap(lits) - cap(w.slab)
	ct.lits = lits[:n:n]
	return nil
}

// Header returns the trace metadata.
func (ct *CompiledTrace) Header() Header { return ct.hdr }

// Patterns returns the pattern-table entry count.
func (ct *CompiledTrace) Patterns() int { return len(ct.patterns) }

// Ops returns the replay-program op count.
func (ct *CompiledTrace) Ops() int { return len(ct.prog) }

// Declared returns the event count the header claims, which the
// program produces exactly.
func (ct *CompiledTrace) Declared() uint64 { return ct.declare }

// Op returns program op i: a repeat op's iteration count and body
// length, or a literal run's row count and a body length of 0.
func (ct *CompiledTrace) Op(i int) (count uint64, bodyLen int) {
	op := ct.prog[i]
	if op.id == literalOp {
		return op.count, 0
	}
	return op.count, len(ct.patterns[op.id])
}

// CountThreads sets counts[i] (len(counts) ≥ NumThreads) to the number
// of events of thread i, walking only the thread deltas. It fails on
// the first event whose thread is out of range, with the error a
// PatternSource reports there. A repeat body whose thread deltas sum to
// zero visits the same threads every iteration, so it is walked once.
func (ct *CompiledTrace) CountThreads(counts []int) error {
	n := ct.hdr.NumThreads
	clear(counts[:n])
	var th int64
	var k uint64 // events walked
	walk := func(rows []row, times int) error {
		for i := range rows {
			th += rows[i].dThread
			t := int32(th)
			if t < 0 || int(t) >= n {
				return threadRangeError(k+uint64(i), t, n)
			}
			counts[t] += times
		}
		k += uint64(len(rows))
		return nil
	}
	lits := ct.lits
	for _, op := range ct.prog {
		if op.id == literalOp {
			if err := walk(lits[:op.count], 1); err != nil {
				return err
			}
			lits = lits[op.count:]
			continue
		}
		body := ct.patterns[op.id]
		if ct.sums[op.id].dThread == 0 {
			if err := walk(body, int(op.count)); err != nil {
				return err
			}
			k += (op.count - 1) * uint64(len(body))
			continue
		}
		for it := uint64(0); it < op.count; it++ {
			if err := walk(body, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// Source returns a fresh replay cursor over the compiled trace.
func (ct *CompiledTrace) Source() *PatternSource {
	return &PatternSource{ct: ct}
}

// PatternSource replays a CompiledTrace as a validated event stream:
// each event is checked to name a thread in [0, NumThreads). It also
// exposes the loop structure — the active repeat op, completed
// iteration count, and O(1) SkipIterations — to the simulator's
// steady-state fast-forward.
type PatternSource struct {
	ct       *CompiledTrace
	st       deltaState
	produced uint64
	opIdx    int

	lit     []row // active literal run
	litPos  int
	litNext int // offset of the next literal run in ct.lits

	body    []row // active repeat body
	bodyID  uint32
	bodyPos int
	repLeft uint64 // replays still owed, including the current one

	cur *row // the row NextThread stepped onto, for Decode

	iters    uint64 // completed body iterations across all repeat ops
	replayed uint64
	literal  uint64
	flushed  bool
	err      error
}

// NewPatternSource compiles enc (XTRP2 bytes) and returns a replay
// cursor over it.
func NewPatternSource(enc []byte) (*PatternSource, error) {
	ct, err := CompileBinary(enc)
	if err != nil {
		return nil, err
	}
	return ct.Source(), nil
}

// Header returns the decoded trace metadata.
func (c *PatternSource) Header() Header { return c.ct.hdr }

// Declared returns the event count the header claims.
func (c *PatternSource) Declared() uint64 { return c.ct.declare }

// Next returns the next event, io.EOF after the declared count, or a
// validation error. The error is sticky.
func (c *PatternSource) Next() (Event, error) {
	var e Event
	if _, err := c.NextThread(); err != nil {
		return e, err
	}
	c.Decode(&e)
	return e, nil
}

// NextThread steps the cursor onto its next event and returns that
// event's thread, checked to name a thread in [0, NumThreads). It
// returns io.EOF after the declared count, or a validation error; the
// error is sticky. Decode then writes the event itself, so a consumer
// that files events by thread writes each one straight into its slot.
// Decode must follow a successful NextThread before the cursor is
// stepped, fingerprinted or skipped again.
func (c *PatternSource) NextThread() (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	var r *row
	for r == nil {
		switch {
		case c.body != nil:
			r = &c.body[c.bodyPos]
			if c.bodyPos++; c.bodyPos == len(c.body) {
				c.bodyPos = 0
				c.iters++
				if c.repLeft--; c.repLeft == 0 {
					c.body = nil
					c.opIdx++
				}
			}
			c.replayed++
		case c.lit != nil:
			r = &c.lit[c.litPos]
			if c.litPos++; c.litPos == len(c.lit) {
				c.lit, c.litPos = nil, 0
				c.opIdx++
			}
			c.literal++
		default:
			if c.produced == c.ct.declare {
				c.err = io.EOF
				c.flushCounters()
				return 0, c.err
			}
			op := &c.ct.prog[c.opIdx]
			if op.id == literalOp {
				end := c.litNext + int(op.count)
				c.lit, c.litPos, c.litNext = c.ct.lits[c.litNext:end], 0, end
			} else {
				c.body, c.bodyID, c.bodyPos, c.repLeft = c.ct.patterns[op.id], op.id, 0, op.count
			}
		}
	}
	// The thread id is delta-dependent, so it is checked here rather
	// than at parse time the way the kind byte is.
	c.st.prevThread += r.dThread
	th := int32(c.st.prevThread)
	if th < 0 || int(th) >= c.ct.hdr.NumThreads {
		c.err = threadRangeError(c.produced, th, c.ct.hdr.NumThreads)
		return 0, c.err
	}
	c.cur = r
	c.produced++
	return int(th), nil
}

// Decode writes the event the last NextThread stepped onto into *e,
// field by field, and advances the delta state past it.
func (c *PatternSource) Decode(e *Event) {
	r, s := c.cur, &c.st
	a := &s.args[r.kind]
	s.prevTime += r.dTime
	a[0] += r.dA0
	a[1] += r.dA1
	a[2] += r.dA2
	e.Time = vtime.Time(s.prevTime)
	e.Kind = r.kind
	e.Thread = int32(s.prevThread)
	e.Arg0, e.Arg1, e.Arg2 = a[0], a[1], a[2]
}

// threadRangeError is the fault of event k naming thread th of an
// n-thread trace.
func threadRangeError(k uint64, th int32, n int) error {
	return fmt.Errorf("trace: event %d thread %d out of range [0,%d)", k, th, n)
}

// flushCounters publishes this cursor's replay/literal split to the
// process-wide codec telemetry, exactly once. Skipped iterations count
// as replayed, so runs with and without fast-forward report identical
// compression counters.
func (c *PatternSource) flushCounters() {
	if c.flushed {
		return
	}
	c.flushed = true
	compReplayEvents.Add(c.replayed)
	compLiteralEvents.Add(c.literal)
}

// IterationsCompleted counts completed repeat-body iterations across
// the whole replay — the fast-forward orchestrator's progress clock.
func (c *PatternSource) IterationsCompleted() uint64 { return c.iters }

// RepeatState reports the active repeat op: its program index, body
// length, and iterations still owed (including the current one). ok is
// false outside a repeat op.
func (c *PatternSource) RepeatState() (opIdx, bodyLen int, repLeft uint64, ok bool) {
	if c.body == nil {
		return 0, 0, 0, false
	}
	return c.opIdx, len(c.body), c.repLeft, true
}

// SkipIterations advances the replay k whole body iterations in O(1):
// the delta state machine is linear, so k iterations from any mid-body
// position add exactly k × (per-body delta sums). The skipped events
// are accounted to the replay telemetry as if produced, keeping
// compression counters identical to event-by-event replay. At least
// one iteration of the active repeat must remain after the skip.
func (c *PatternSource) SkipIterations(k uint64) error {
	if c.body == nil || k == 0 || k >= c.repLeft {
		return fmt.Errorf("trace: cannot skip %d iterations (repeat has %d left)", k, c.repLeft)
	}
	s := &c.ct.sums[c.bodyID]
	kk := int64(k)
	c.st.prevTime += kk * s.dTime
	c.st.prevThread += kk * s.dThread
	for kind := range c.st.args {
		for a := range c.st.args[kind] {
			c.st.args[kind][a] += kk * s.dArgs[kind][a]
		}
	}
	c.repLeft -= k
	n := k * uint64(len(c.body))
	c.produced += n
	c.replayed += n
	c.iters += k
	return nil
}

// AppendFingerprint pushes the decoder state's live slots: program
// position and delta-machine registers. prevTime advances on the
// measured (original) timescale; the per-kind barrier-id arg contexts
// advance on the barrier-id scale; everything else must be exactly
// periodic.
func (c *PatternSource) AppendFingerprint(fp *ReplayFingerprint) {
	fp.Push(FPExact, int64(c.opIdx))
	fp.Push(FPExact, int64(c.bodyPos))
	fp.Push(FPExact, c.st.prevThread)
	fp.Push(FPOrig, c.st.prevTime)
	for k := range c.st.args {
		barArg0 := Kind(k) == KindBarrierEntry || Kind(k) == KindBarrierExit
		for a := range c.st.args[k] {
			cls := FPExact
			if a == 0 && barArg0 {
				cls = FPBarID
			}
			fp.Push(cls, c.st.args[k][a])
		}
	}
}

// --- replay fingerprints ------------------------------------------------------

// Fingerprint slot classes. A slot's class says how its value may
// evolve between two snapshots taken a fixed number of pattern
// iterations apart while the system is in steady state:
//
//   - FPExact: structural state — must not change at all (thread ids,
//     kinds, queue shapes, slab indices, flags, dead-state sentinels).
//   - FPSim / FPTrans / FPOrig / FPBarID: time-like state on one of the
//     pipeline's four timescales (simulated clock, translated clock,
//     measured clock, dense barrier ids). All slots of one class must
//     advance by one shared non-negative stride — the uniform shift the
//     engine's dynamics are invariant under.
//   - FPBarT / FPBarS: time fields inside the sliding window of recent
//     barrier records (translated-scale in translate, simulated-scale
//     in the kernel). They get their own learned strides because the
//     window slides in a steady barrier loop (slot w names barrier
//     id+Δ at the next snapshot, so values advance with the clock) but
//     freezes in a barrier-free loop (same ids, values frozen, stride
//     0) — either is a valid steady state, a mix is not.
//   - FPAccum: write-only accumulators (statistics, counters) that
//     never feed back into behavior. Any per-slot stride is accepted
//     and extrapolated linearly on skip.
const (
	FPExact uint8 = iota
	FPSim
	FPTrans
	FPOrig
	FPBarID
	FPBarT
	FPBarS
	FPAccum

	fpClassCount
)

// ReplayFingerprint is one snapshot of the pipeline's live state as
// parallel (class, value) slots, assembled in a deterministic traversal
// order by each layer's AppendFingerprint.
type ReplayFingerprint struct {
	cls    []uint8
	vals   []int64
	max    [fpClassCount]int64
	accums int // FPAccum slots pushed
}

// Reset clears the fingerprint for reuse, keeping capacity.
func (f *ReplayFingerprint) Reset() {
	f.cls = f.cls[:0]
	f.vals = f.vals[:0]
	f.max = [fpClassCount]int64{}
	f.accums = 0
}

// Grow reserves room for n more slots, so a snapshot of an estimated
// size allocates once instead of growing slot by slot.
func (f *ReplayFingerprint) Grow(n int) {
	f.cls = slices.Grow(f.cls, n)
	f.vals = slices.Grow(f.vals, n)
}

// Push appends one slot.
func (f *ReplayFingerprint) Push(cls uint8, v int64) {
	f.cls = append(f.cls, cls)
	f.vals = append(f.vals, v)
	if v > f.max[cls] {
		f.max[cls] = v
	}
	if cls == FPAccum {
		f.accums++
	}
}

// PushBool appends a structural flag slot.
func (f *ReplayFingerprint) PushBool(v bool) {
	b := int64(0)
	if v {
		b = 1
	}
	f.Push(FPExact, b)
}

// Len returns the slot count.
func (f *ReplayFingerprint) Len() int { return len(f.vals) }

// ReplayDeltas is the per-chunk advance learned from two matching
// fingerprints: one stride per timescale plus the per-slot strides of
// the accumulator slots, in traversal order.
type ReplayDeltas struct {
	Sim, Trans, Orig, Bar int64
	BarT, BarS            int64
	accum                 []int64
	pos                   int
}

// ResetAccum rewinds the accumulator-stride cursor; each shift
// traversal consumes strides in the same order the fingerprint
// traversal pushed them.
func (d *ReplayDeltas) ResetAccum() { d.pos = 0 }

// NextAccum pops the next accumulator stride.
func (d *ReplayDeltas) NextAccum() int64 {
	v := d.accum[d.pos]
	d.pos++
	return v
}

// DiffFingerprints compares two snapshots taken a fixed iteration
// stride apart and, when the state trajectory is a pure per-timescale
// time shift, fills d with the learned strides and reports true. Any
// structural change, class disagreement, negative or non-uniform
// timescale stride reports false — the caller must fall back to
// event-by-event replay.
func DiffFingerprints(prev, curr *ReplayFingerprint, d *ReplayDeltas) bool {
	if len(prev.vals) != len(curr.vals) {
		return false
	}
	var have [fpClassCount]bool
	d.Sim, d.Trans, d.Orig, d.Bar = 0, 0, 0, 0
	d.BarT, d.BarS = 0, 0
	d.accum = slices.Grow(d.accum[:0], prev.accums)
	d.pos = 0
	for i, pv := range prev.vals {
		cls := prev.cls[i]
		if cls != curr.cls[i] {
			return false
		}
		delta := curr.vals[i] - pv
		switch cls {
		case FPExact:
			if delta != 0 {
				return false
			}
		case FPAccum:
			d.accum = append(d.accum, delta)
		default:
			if delta < 0 {
				return false
			}
			p := d.class(cls)
			if !have[cls] {
				*p, have[cls] = delta, true
			} else if *p != delta {
				return false
			}
		}
	}
	return true
}

func (d *ReplayDeltas) class(cls uint8) *int64 {
	switch cls {
	case FPSim:
		return &d.Sim
	case FPTrans:
		return &d.Trans
	case FPOrig:
		return &d.Orig
	case FPBarID:
		return &d.Bar
	case FPBarT:
		return &d.BarT
	case FPBarS:
		return &d.BarS
	}
	panic("trace: not a timescale class")
}

// MaxShiftChunks bounds how many chunks may be skipped before any
// fingerprinted time-like slot would cross 2^62 — far past any real
// virtual time, and low enough that the shift arithmetic (and every
// comparison downstream of it) can never wrap int64. It is at most
// MaxTraceEvents, which no skip over a trace's iterations can exceed.
// curr must be the later of the two fingerprints d was derived from.
func MaxShiftChunks(curr *ReplayFingerprint, d *ReplayDeltas) uint64 {
	const ceiling = int64(1) << 62
	limit := uint64(MaxTraceEvents)
	for cls, stride := range map[uint8]int64{
		FPSim: d.Sim, FPTrans: d.Trans, FPOrig: d.Orig, FPBarID: d.Bar,
		FPBarT: d.BarT, FPBarS: d.BarS,
	} {
		if stride <= 0 {
			continue
		}
		headroom := ceiling - curr.max[cls]
		if headroom <= 0 {
			return 0
		}
		if j := uint64(headroom / stride); j < limit {
			limit = j
		}
	}
	return limit
}
