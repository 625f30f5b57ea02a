package sim

import (
	"context"
	"fmt"
	"io"
	"sync"

	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// msgKind discriminates simulated messages.
type msgKind uint8

const (
	mReqRead msgKind = iota
	mReqWrite
	mReply
	mBarArrive
	mBarRelease
)

// message is one simulated network message.
type message struct {
	kind      msgKind
	src, dst  int // thread ids
	bytes     int64
	barrier   int64
	delivered bool // NI queueing applied
}

// msgSlab hands out messages carved from block allocations, replacing
// one heap allocation per simulated message with one per msgSlabSize
// messages. Messages are addressed by dense index — the future event
// list stores the index, not a pointer, keeping pending events free of
// GC write barriers. A message's slot is recycled once its handling
// completes (the engine releases it at each end-of-life point), so the
// slab's footprint tracks the in-flight message population, not the
// total message count of the run; blocks already allocated are retained
// across resets for arena reuse. Slot reuse cannot perturb results:
// indices are bookkeeping only — event ordering is by (at, seq), which
// never reads them.
const msgSlabSize = 256

type msgSlab struct {
	blocks [][]message
	used   int     // high-water slots handed out this run
	free   []int32 // released slots awaiting reuse
}

func (s *msgSlab) new(kind msgKind, src, dst int, bytes, barrier int64) int32 {
	var idx int
	if n := len(s.free); n > 0 {
		idx = int(s.free[n-1])
		s.free = s.free[:n-1]
	} else {
		if s.used == len(s.blocks)*msgSlabSize {
			s.blocks = append(s.blocks, make([]message, msgSlabSize))
		}
		idx = s.used
		s.used++
	}
	m := &s.blocks[idx/msgSlabSize][idx%msgSlabSize]
	// Full overwrite: slots are reused within and across runs, so every
	// field — delivered included — must be set, not assumed zero.
	*m = message{kind: kind, src: src, dst: dst, bytes: bytes, barrier: barrier}
	return int32(idx)
}

// release returns a slot to the free list. The caller owns the proof
// that nothing — no future-event-list entry, no service queue — still
// holds index i.
func (s *msgSlab) release(i int32) { s.free = append(s.free, i) }

// at resolves a slab index. Taking a new pointer per use is safe: blocks
// never move once allocated (growing appends a block, it does not copy
// messages).
func (s *msgSlab) at(i int32) *message {
	return &s.blocks[int(i)/msgSlabSize][int(i)%msgSlabSize]
}

// reset forgets all handed-out messages, keeping the blocks for reuse.
func (s *msgSlab) reset() {
	s.used = 0
	s.free = s.free[:0]
}

// tstate is a simulated thread's execution state.
type tstate uint8

const (
	tsComputing tstate = iota
	tsWaitCPU
	tsWaitReply
	tsWaitBarrier
	tsDone
)

// thr is the per-thread simulation state: a cursor over the thread's
// translated events plus execution bookkeeping. The cursor reads evs by
// index. Over a materialized ParallelTrace, evs is the thread's whole
// event list; over a stream, it is the buffer translate.Stream.Refill
// last handed out, refilled when the thread has read it to the end (see
// advance), so the full trace never needs to be resident.
type thr struct {
	id, proc int
	evs      []trace.Event
	pos      int
	prevT    vtime.Time // translated-trace time of the last consumed event
	state    tstate
	gen      uint32     // invalidates superseded compute-done/poll events
	segEnd   vtime.Time // absolute end of the current compute run
	pureLeft vtime.Time // pure compute remaining beyond the current run (Poll)
	blockAt  vtime.Time // when the thread last blocked (stats)
	readyAt  vtime.Time // when the thread became runnable (CPU wait stats)
	stats    ThreadStats
}

// hasCur reports whether the thread's cursor is positioned on an event.
func (t *thr) hasCur() bool { return t.pos < len(t.evs) }

// peek returns the current event; valid only when hasCur. The pointer is
// into the thread's buffer, which a streaming refill hands back to the
// stream, so advance/consume invalidates it: callers copy any field they
// need past a consume.
func (t *thr) peek() *trace.Event { return &t.evs[t.pos] }

// advance moves t's cursor past the current event. A streaming thread
// that has read its buffer to the end refills it at once, so the source
// is pulled exactly when the thread's next event is first needed.
func (e *engine) advance(t *thr) {
	if t.pos++; t.pos == len(t.evs) && e.src != nil {
		e.refill(t)
	}
}

// refill hands t's read buffer back to the stream and takes its next
// events. A mid-stream source error is recorded on the engine (the event
// loop aborts with it), and the cursor reads as exhausted.
func (e *engine) refill(t *thr) {
	evs, err := e.src.Refill(t.id)
	if err != nil {
		if err != io.EOF && e.fail == nil {
			e.fail = fmt.Errorf("sim: trace source failed: %w", err)
		}
		evs = nil
	}
	t.evs, t.pos = evs, 0
}

// prc is a simulated processor: the threads mapped to it, its run state,
// its pending-request queue, and its service serialization point.
type prc struct {
	id       int
	threads  []int
	current  int // thread id computing now, -1 if none
	last     int // last thread that computed (context switch detection)
	runq     []int
	svcQueue []int32 // msgSlab indices
	// svcBusyUntil serializes message handling on this processor.
	svcBusyUntil vtime.Time
}

// engine drives one trace-driven simulation. Threads, processors, and
// barrier states live in dense slices and a fixed ring (not maps or
// per-item heap allocations) so the event loop touches contiguous
// memory.
type engine struct {
	cfg     Config
	n       int
	nprocs  int
	threads []thr
	procs   []prc
	inter   *network.Network
	intra   *network.Network // non-nil when clustering is enabled
	fel     fel
	// bars holds the records of the ffBarWindow most recent barrier ids,
	// slot id&barMask (see bar). barHi is one past the highest id
	// touched, or slid to by a fast-forward skip.
	bars  [ffBarWindow]barSt
	barHi int64
	nbars int // barriers actually encountered
	msgs  msgSlab
	// src is the stream a streaming run refills thread buffers from; nil
	// over a materialized trace.
	src  *translate.Stream
	out  *trace.Trace
	now  vtime.Time
	done int
	// fail is the sticky mid-run error: a streaming source error, or a
	// barrier id whose record was already recycled. The event loop
	// aborts with it.
	fail error
}

// arena holds the dense simulator state — thread and processor records,
// the future event list, the barrier ring with its tree tables, the
// message slab, the network models and the fast-forward fingerprint
// buffers — so repeated
// simulations reuse the same allocations instead of rebuilding them per
// run. Every record is fully reinitialized when acquired, so results
// are bit-identical to a fresh engine, also after a run that failed or
// was cancelled. Nothing a run returns aliases arena memory. An arena is
// not safe for concurrent use.
type arena struct {
	e            engine
	ff           ffState
	inter, intra network.Network
}

// newArena returns an empty arena; state is allocated on first use and
// grown as needed.
func newArena() *arena { return &arena{} }

// arenas recycles arenas, so every sweep cell and served prediction
// reuses engine state.
var arenas = sync.Pool{New: func() any { return newArena() }}

// acquire reinitializes the arena's engine for a run of n threads on
// nprocs processors: every field a fresh engine would have zero is
// zeroed, while the backing arrays — including per-processor queues and
// the barrier slots' tree tables, re-zeroed where bar re-arms them — are
// kept.
func (a *arena) acquire(cfg Config, n, nprocs int) *engine {
	e := &a.e
	threads := e.threads
	if cap(threads) < n {
		threads = make([]thr, n)
	}
	threads = threads[:n]
	clear(threads)
	procs := e.procs
	if cap(procs) < nprocs {
		procs = make([]prc, nprocs)
	}
	procs = procs[:nprocs]
	for i := range procs {
		p := &procs[i]
		*p = prc{
			id:       i,
			current:  -1,
			last:     -1,
			threads:  p.threads[:0],
			runq:     p.runq[:0],
			svcQueue: p.svcQueue[:0],
		}
	}
	bars := e.bars
	for i := range bars {
		bars[i].used = false
	}
	felq := e.fel.q[:0]
	if cap(felq) < 4*n {
		felq = make([]event, 0, 4*n)
	}
	msgs := e.msgs
	msgs.reset()
	*e = engine{
		cfg:     cfg,
		n:       n,
		nprocs:  nprocs,
		threads: threads,
		procs:   procs,
		fel:     fel{q: felq},
		bars:    bars,
		msgs:    msgs,
	}
	return e
}

// release drops the run's references into caller-owned data — event
// slices and buffers, the stream, the emitted trace — so a pooled arena
// pins nothing between runs.
func (a *arena) release() {
	e := &a.e
	clear(e.threads)
	e.src, e.inter, e.intra, e.out, e.fail = nil, nil, nil, nil, nil
	a.ff.release()
}

// ctxCheckMask paces the event loop's cancellation polls: the context is
// consulted once every (mask+1) events, keeping the check off the
// per-event hot path while still bounding how long a cancelled
// simulation keeps running.
const ctxCheckMask = 1<<13 - 1

// Simulate replays the translated parallel trace against the target
// environment described by cfg and returns the predicted performance
// information and metrics. The input trace is read-only: neither the
// event slices nor the ParallelTrace header are modified, so one
// translation may be simulated under many configurations (and from many
// goroutines) concurrently. Engine state (thread/processor/barrier
// tables, event list, message slab) comes from a process-wide pool, so
// repeated simulations allocate almost nothing, and results are
// bit-identical to a fresh engine. The event loop polls ctx
// periodically and abandons the simulation with ctx's error (wrapped, so
// errors.Is sees context.Canceled / DeadlineExceeded).
func Simulate(ctx context.Context, pt *translate.ParallelTrace, cfg Config) (*Result, error) {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return a.simulate(ctx, cfg, pt, nil)
}

// SimulateStream runs the simulation over a streaming translation
// instead of a materialized ParallelTrace: each thread reads the buffers
// src refills, so peak memory is bounded by the stream's buffering
// rather than the trace size. Results are byte-identical to Simulate on
// the equivalent materialized trace. When src is fed by a compiled
// (XTRP2) pattern cursor and cfg.EmitTrace is off, the engine
// fast-forwards provably steady pattern iterations (see ffwd.go). Engine
// state comes from the process-wide arena pool.
func SimulateStream(ctx context.Context, src *translate.Stream, cfg Config) (*Result, error) {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return a.simulate(ctx, cfg, nil, src)
}

// simulate is the engine core behind both entry points, run on a's
// state: exactly one of pt (a materialized translation) and src (a
// streaming one) is non-nil. A stream lets the engine engage pattern
// fast-forward when it exposes its compiled-trace cursor.
func (a *arena) simulate(ctx context.Context, cfg Config, pt *translate.ParallelTrace, src *translate.Stream) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: not started: %w", err)
	}
	var n int
	var phases []string
	if src != nil {
		n, phases = src.NumThreads(), src.Phases()
	} else {
		n, phases = pt.NumThreads, pt.Phases
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: empty parallel trace")
	}
	nprocs := cfg.Procs
	if nprocs == 0 {
		nprocs = n
	}
	if nprocs > n {
		return nil, fmt.Errorf("sim: %d processors for %d threads; extrapolation maps m ≤ n", nprocs, n)
	}
	if n%nprocs != 0 {
		return nil, fmt.Errorf("sim: thread count %d not divisible by processor count %d", n, nprocs)
	}

	e := a.acquire(cfg, n, nprocs)
	defer a.release()
	if err := a.inter.Reset(cfg.Comm, nprocs); err != nil {
		return nil, err
	}
	e.inter = &a.inter
	if cfg.ClusterSize > 1 {
		if err := a.intra.Reset(cfg.IntraComm, nprocs); err != nil {
			return nil, err
		}
		e.intra = &a.intra
	}
	if cfg.EmitTrace {
		e.out = trace.New(n)
		e.out.Phases = append([]string(nil), phases...)
		// Emitted events ≈ input events plus a send and a receive per
		// message; 2× avoids most regrowth without overcommitting. A
		// stream has no count to size from.
		hint := 0
		if pt != nil {
			hint = pt.Events()
		}
		e.out.Events = make([]trace.Event, 0, 2*hint)
	}

	perProc := n / nprocs
	for i := 0; i < n; i++ {
		p := placeThread(cfg.Placement, i, n, nprocs, perProc)
		t := &e.threads[i]
		t.id, t.proc, t.state = i, p, tsWaitCPU
		if src == nil {
			t.evs = pt.Threads[i]
		} else {
			// Take the thread's first events. A source error here (e.g.
			// inline trace validation) aborts up front.
			evs, err := src.Refill(i)
			switch {
			case err == io.EOF:
			case err != nil:
				return nil, err
			default:
				t.evs = evs
			}
		}
		if t.hasCur() {
			t.prevT = t.peek().Time
		}
		e.procs[p].threads = append(e.procs[p].threads, i)
	}
	for p := range e.procs {
		if cap(e.procs[p].runq) < len(e.procs[p].threads) {
			e.procs[p].runq = make([]int, 0, len(e.procs[p].threads))
		}
	}

	// Launch: every thread wants the CPU at time 0 for its first (empty)
	// segment leading to its first event.
	for i := range e.threads {
		t := &e.threads[i]
		if !t.hasCur() {
			t.state = tsDone
			e.done++
			continue
		}
		e.requestCPU(t, 0)
	}

	e.src = src
	ff := a.ff.engage(&cfg, src)

	const maxEvents = 1 << 28 // runaway-guard far above any real workload
	steps := 0
	for {
		if ff != nil {
			var ferr error
			if steps, ferr = ff.observe(ctx, e, steps); ferr != nil {
				return nil, ferr
			}
		}
		if e.fel.empty() {
			break
		}
		ev := e.fel.pop()
		if ev.at < e.now {
			return nil, fmt.Errorf("sim: time ran backwards: %v after %v", ev.at, e.now)
		}
		e.now = ev.at
		switch ev.kind {
		case evComputeDone:
			t := &e.threads[ev.thread]
			if ev.gen != t.gen || t.state != tsComputing {
				continue // superseded
			}
			e.handleEvent(t)
		case evPollTick:
			t := &e.threads[ev.thread]
			if ev.gen != t.gen || t.state != tsComputing {
				continue
			}
			e.pollTick(t)
		case evMsgArrive:
			e.msgArrive(ev.msg)
		case evResume:
			t := &e.threads[ev.thread]
			if ev.gen != t.gen {
				continue
			}
			e.resumeFromBarrier(t)
		}
		if e.fail != nil {
			return nil, e.fail
		}
		if steps++; steps > maxEvents {
			return nil, fmt.Errorf("sim: event budget exceeded (livelock?)")
		}
		if steps&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: aborted after %d events: %w", steps, err)
			}
		}
	}
	if e.done != n {
		return nil, fmt.Errorf("sim: %d of %d threads did not finish (deadlocked trace?)", n-e.done, n)
	}

	res := &Result{
		Threads:  make([]ThreadStats, n),
		Barriers: e.nbars,
		Procs:    nprocs,
	}
	for i := range e.threads {
		t := &e.threads[i]
		res.Threads[i] = t.stats
		if t.stats.Finish > res.TotalTime {
			res.TotalTime = t.stats.Finish
		}
	}
	res.Net = NetStats{
		Messages:      e.inter.Messages,
		Bytes:         e.inter.Bytes,
		TotalTransit:  e.inter.TotalTransit,
		ContentionAdd: e.inter.ContentionAdd,
		QueueingAdd:   e.inter.QueueingAdd,
		MaxInFlight:   e.inter.MaxInFlight,
	}
	if e.intra != nil {
		res.Net.Messages += e.intra.Messages
		res.Net.Bytes += e.intra.Bytes
		res.Net.TotalTransit += e.intra.TotalTransit
		res.Net.ContentionAdd += e.intra.ContentionAdd
		res.Net.QueueingAdd += e.intra.QueueingAdd
	}
	if e.out != nil {
		e.out.SortByTime()
		res.Trace = e.out
	}
	return res, nil
}

// placeThread maps thread i onto a processor according to the placement
// policy: contiguous blocks (neighboring threads share processors and
// clusters) or round-robin (neighbors land on different processors).
func placeThread(p Placement, i, n, nprocs, perProc int) int {
	if p == CyclicPlacement {
		return i % nprocs
	}
	return i / perProc
}

// netFor selects the communication substrate for a src→dst processor
// pair: the intra-cluster network when both ends share a cluster.
func (e *engine) netFor(srcProc, dstProc int) *network.Network {
	if e.intra != nil && srcProc/e.cfg.ClusterSize == dstProc/e.cfg.ClusterSize {
		return e.intra
	}
	return e.inter
}

// scale converts a translated-trace compute delta to target-processor time.
func (e *engine) scale(d vtime.Time) vtime.Time {
	if d <= 0 {
		return 0
	}
	return d.Scale(e.cfg.MipsRatio)
}

// emit appends an event to the extrapolated trace if enabled.
func (e *engine) emit(t vtime.Time, kind trace.Kind, thread int, a0, a1, a2 int64) {
	if e.out == nil {
		return
	}
	e.out.Append(trace.Event{Time: t, Kind: kind, Thread: int32(thread), Arg0: a0, Arg1: a1, Arg2: a2})
}

// --- CPU scheduling -------------------------------------------------------

// requestCPU makes thread t runnable at time at; it starts computing its
// next segment when its processor grants the CPU.
func (e *engine) requestCPU(t *thr, at vtime.Time) {
	p := &e.procs[t.proc]
	t.state = tsWaitCPU
	t.readyAt = at
	if p.current == -1 {
		e.grantCPU(p, t, at)
	} else {
		p.runq = append(p.runq, t.id)
	}
}

// grantCPU starts t's next compute segment on processor p at time ≥ at.
func (e *engine) grantCPU(p *prc, t *thr, at vtime.Time) {
	start := at
	if p.last != -1 && p.last != t.id {
		start += e.cfg.ContextSwitchTime
	}
	if start < t.readyAt {
		start = t.readyAt
	}
	t.stats.CPUWait += start - t.readyAt
	p.current = t.id
	p.last = t.id
	pure := e.scale(t.peek().Time - t.prevT)
	t.stats.Compute += pure
	t.pureLeft = pure
	e.runSegment(t, start)
}

// releaseCPU is called when the current thread of p blocks or finishes;
// the next runnable thread (if any) is granted the CPU.
func (e *engine) releaseCPU(p *prc, at vtime.Time) {
	p.current = -1
	if len(p.runq) > 0 {
		next := &e.threads[p.runq[0]]
		// Shift rather than reslice: the queue holds at most the
		// processor's other threads, and keeping its backing array means
		// requeueing never reallocates, in this run or the next.
		p.runq = p.runq[:copy(p.runq, p.runq[1:])]
		e.grantCPU(p, next, at)
	}
}

// runSegment schedules the next continuous run of t's pending pure
// compute, splitting at poll boundaries under the Poll policy.
func (e *engine) runSegment(t *thr, at vtime.Time) {
	t.state = tsComputing
	t.gen++
	pol := &e.cfg.Policy
	kind := evComputeDone
	if pol.Kind == Poll && t.pureLeft > pol.PollInterval {
		t.pureLeft -= pol.PollInterval
		t.segEnd = at + pol.PollInterval
		kind = evPollTick
	} else {
		t.segEnd = at + t.pureLeft
		t.pureLeft = 0
	}
	e.fel.schedule(t.segEnd, kind, int32(t.id), t.gen, noMsg)
}

// pollTick fires at a poll boundary: pay the poll overhead, service the
// queued requests, then continue the segment.
func (e *engine) pollTick(t *thr) {
	p := &e.procs[t.proc]
	cost := e.cfg.Policy.PollOverhead
	t.stats.Service += cost
	resume := e.now + cost
	if end := e.drainQueue(p, resume); end > resume {
		resume = end
	}
	e.runSegment(t, resume)
}

// drainQueue services every queued request on p, starting no earlier than
// from, and returns when the processor is free again.
func (e *engine) drainQueue(p *prc, from vtime.Time) vtime.Time {
	if p.svcBusyUntil < from {
		p.svcBusyUntil = from
	}
	for _, mi := range p.svcQueue {
		e.serviceMessage(p, e.msgs.at(mi), p.svcBusyUntil)
		e.msgs.release(mi)
	}
	p.svcQueue = p.svcQueue[:0]
	return p.svcBusyUntil
}

// --- trace event handling --------------------------------------------------

// handleEvent processes the trace event t has just computed up to (at
// e.now). It consumes the event and either schedules the next segment or
// transitions the thread into a waiting state.
func (e *engine) handleEvent(t *thr) {
	ev := t.peek()
	switch ev.Kind {
	case trace.KindThreadStart, trace.KindPhaseBegin, trace.KindPhaseEnd:
		if ev.Kind != trace.KindThreadStart {
			e.emit(e.now, ev.Kind, t.id, ev.Arg0, ev.Arg1, ev.Arg2)
		}
		e.consume(t, ev)
		e.continueThread(t, e.now)

	case trace.KindThreadEnd:
		e.consume(t, ev)
		t.state = tsDone
		t.stats.Finish = e.now
		e.done++
		e.emit(e.now, trace.KindThreadEnd, t.id, 0, 0, 0)
		p := &e.procs[t.proc]
		// Requests queued while this thread computed (NoInterrupt/Poll)
		// must still be serviced, or their requesters would hang.
		e.drainQueue(p, e.now)
		if p.current == t.id {
			e.releaseCPU(p, e.now)
		}

	case trace.KindRemoteRead:
		e.remoteRead(t, ev)

	case trace.KindRemoteWrite:
		e.remoteWrite(t, ev)

	case trace.KindBarrierEntry:
		id := ev.Arg0 // copy: consume invalidates ev in streaming mode
		e.consume(t, ev)
		e.barrierEnter(t, id)

	case trace.KindBarrierExit:
		// Exits are consumed by the release path; reaching one here means
		// the release consumed it already and scheduling continued past
		// it, which would be an engine bug.
		panic(fmt.Sprintf("sim: thread %d computed into barrier-exit event", t.id))

	default:
		// Unknown instrumentation events are carried through untimed.
		e.consume(t, ev)
		e.continueThread(t, e.now)
	}
}

// consume advances t past ev.
func (e *engine) consume(t *thr, ev *trace.Event) {
	t.prevT = ev.Time
	e.advance(t)
}

// continueThread moves t toward its next event starting at time at.
func (e *engine) continueThread(t *thr, at vtime.Time) {
	if !t.hasCur() {
		// Trace ended without a thread-end event; treat as done.
		t.state = tsDone
		t.stats.Finish = at
		e.done++
		p := &e.procs[t.proc]
		e.drainQueue(p, at)
		if p.current == t.id {
			e.releaseCPU(p, at)
		}
		return
	}
	p := &e.procs[t.proc]
	if p.current == t.id {
		// Still on CPU: run the next segment directly.
		pure := e.scale(t.peek().Time - t.prevT)
		t.stats.Compute += pure
		t.pureLeft = pure
		e.runSegment(t, at)
		return
	}
	e.requestCPU(t, at)
}

// block transitions the on-CPU thread t into a waiting state, drains the
// processor's request backlog (NoInterrupt/Poll requests queued during the
// segment), and hands the CPU to the next thread.
func (e *engine) block(t *thr, state tstate, cpuFreeAt vtime.Time) {
	t.state = state
	t.blockAt = e.now
	p := &e.procs[t.proc]
	e.drainQueue(p, cpuFreeAt)
	e.releaseCPU(p, cpuFreeAt)
}

// --- remote data access -----------------------------------------------------

// remoteRead simulates t hitting a remote element read: construct and
// inject a request to the owner, then wait for the reply.
func (e *engine) remoteRead(t *thr, ev *trace.Event) {
	owner := int(ev.Arg0)
	ownerProc := e.threads[owner].proc
	if ownerProc == t.proc {
		// Same-processor access in a multithreaded mapping: shared local
		// memory; charge one service time as the lookup cost.
		resume := e.now + e.cfg.Policy.ServiceTime
		t.stats.CommWait += resume - e.now
		t.stats.RemoteReads++
		e.emit(e.now, trace.KindRemoteRead, t.id, ev.Arg0, ev.Arg1, ev.Arg2)
		e.consume(t, ev)
		e.continueThread(t, resume)
		return
	}
	net := e.netFor(t.proc, ownerProc)
	sendOv := net.SendOverhead(net.Config().RequestBytes)
	injectAt := e.now + sendOv
	m := e.msgs.new(mReqRead, t.id, owner, ev.Arg1, 0)
	raw := net.Inject(injectAt, t.proc, ownerProc, net.Config().RequestBytes)
	e.fel.schedule(raw, evMsgArrive, 0, 0, m)
	e.emit(injectAt, trace.KindMsgSend, t.id, int64(owner), net.Config().RequestBytes, int64(mReqRead))
	t.stats.RemoteReads++
	e.block(t, tsWaitReply, injectAt)
}

// remoteWrite simulates the fire-and-forget remote write extension: the
// writer pays the send overhead and continues; the owner services the
// write when it arrives.
func (e *engine) remoteWrite(t *thr, ev *trace.Event) {
	owner := int(ev.Arg0)
	ownerProc := e.threads[owner].proc
	t.stats.RemoteWrites++
	if ownerProc == t.proc {
		resume := e.now + e.cfg.Policy.ServiceTime
		t.stats.CommWait += resume - e.now
		e.consume(t, ev)
		e.continueThread(t, resume)
		return
	}
	net := e.netFor(t.proc, ownerProc)
	sendOv := net.SendOverhead(ev.Arg1)
	injectAt := e.now + sendOv
	m := e.msgs.new(mReqWrite, t.id, owner, ev.Arg1, 0)
	raw := net.Inject(injectAt, t.proc, ownerProc, ev.Arg1)
	e.fel.schedule(raw, evMsgArrive, 0, 0, m)
	e.emit(injectAt, trace.KindMsgSend, t.id, int64(owner), ev.Arg1, int64(mReqWrite))
	t.stats.CommWait += sendOv
	e.consume(t, ev)
	e.continueThread(t, injectAt)
}

// --- message arrival and servicing -----------------------------------------

// msgArrive handles a message reaching its destination processor. The
// first firing applies NI receive-queue serialization; the (possibly
// rescheduled) delivered firing dispatches on message kind.
func (e *engine) msgArrive(mi int32) {
	m := e.msgs.at(mi)
	dstProc := e.threads[m.dst].proc
	if !m.delivered {
		m.delivered = true
		srcProc := e.threads[m.src].proc
		avail := e.netFor(srcProc, dstProc).Deliver(e.now, dstProc)
		if avail > e.now {
			e.fel.schedule(avail, evMsgArrive, 0, 0, mi)
			return
		}
	}
	switch m.kind {
	case mReply:
		e.replyArrive(m)
		e.msgs.release(mi)
	case mBarRelease:
		e.emit(e.now, trace.KindMsgRecv, m.dst, int64(m.src), m.bytes, int64(m.kind))
		e.barrierReleaseArrive(m)
		e.msgs.release(mi)
	default:
		// CPU-handled messages: remote requests and barrier arrivals.
		// requestArrive owns the release — it may park mi on a service
		// queue instead of finishing it here.
		e.emit(e.now, trace.KindMsgRecv, m.dst, int64(m.src), m.bytes, int64(m.kind))
		e.requestArrive(mi, m)
	}
}

// requestArrive routes a CPU-handled message through the service policy of
// the destination processor.
func (e *engine) requestArrive(mi int32, m *message) {
	p := &e.procs[e.threads[m.dst].proc]
	cur := p.current
	if cur == -1 || e.threads[cur].state != tsComputing {
		// Processor idle or its thread blocked: service immediately,
		// serialized behind any ongoing service.
		at := vtime.Max(e.now, p.svcBusyUntil)
		e.serviceMessage(p, m, at)
		e.msgs.release(mi)
		return
	}
	t := &e.threads[cur]
	switch e.cfg.Policy.Kind {
	case Interrupt:
		start := vtime.Max(e.now, p.svcBusyUntil)
		cost := e.cfg.Policy.InterruptOverhead + e.serviceCost(p, m)
		e.dispatchService(p, m, start+e.cfg.Policy.InterruptOverhead)
		p.svcBusyUntil = start + cost
		t.segEnd += cost
		e.threads[m.dst].stats.Service += e.cfg.Policy.InterruptOverhead
		t.gen++
		if t.pureLeft > 0 {
			e.fel.schedule(t.segEnd, evPollTick, int32(t.id), t.gen, noMsg)
		} else {
			e.fel.schedule(t.segEnd, evComputeDone, int32(t.id), t.gen, noMsg)
		}
		e.msgs.release(mi)
	default: // NoInterrupt and Poll queue until a service opportunity.
		p.svcQueue = append(p.svcQueue, mi)
	}
}

// serviceCost returns the processor-occupancy cost of servicing m.
func (e *engine) serviceCost(p *prc, m *message) vtime.Time {
	switch m.kind {
	case mReqRead:
		replyNet := e.netFor(p.id, e.threads[m.src].proc)
		return e.cfg.Policy.ServiceTime + replyNet.SendOverhead(m.bytes)
	case mReqWrite:
		return e.cfg.Policy.ServiceTime
	case mBarArrive:
		return e.cfg.Barrier.CheckTime
	}
	panic(fmt.Sprintf("sim: serviceCost of message kind %d", m.kind))
}

// serviceMessage performs m's handling starting at time at (≥ now),
// updating the processor's service serialization point and dispatching
// the message's effect.
func (e *engine) serviceMessage(p *prc, m *message, at vtime.Time) {
	if at < p.svcBusyUntil {
		at = p.svcBusyUntil
	}
	p.svcBusyUntil = at + e.serviceCost(p, m)
	e.dispatchService(p, m, at)
}

// dispatchService applies the effect of servicing m at time at: sending
// the read reply, applying the write, or advancing the barrier protocol.
// Service time is attributed to the destination thread.
func (e *engine) dispatchService(p *prc, m *message, at vtime.Time) {
	e.threads[m.dst].stats.Service += e.serviceCost(p, m)
	switch m.kind {
	case mReqRead:
		reqProc := e.threads[m.src].proc
		net := e.netFor(p.id, reqProc)
		injectAt := at + e.cfg.Policy.ServiceTime + net.SendOverhead(m.bytes)
		reply := e.msgs.new(mReply, m.dst, m.src, m.bytes, 0)
		raw := net.Inject(injectAt, p.id, reqProc, m.bytes)
		e.fel.schedule(raw, evMsgArrive, 0, 0, reply)
		e.emit(injectAt, trace.KindMsgSend, m.dst, int64(m.src), m.bytes, int64(mReply))
	case mReqWrite:
		// Effect is instantaneous once serviced; nothing further moves.
	case mBarArrive:
		e.barrierArriveServiced(m, at+e.cfg.Barrier.CheckTime)
	}
}

// replyArrive completes a remote read: the requester consumes the reply
// and resumes computing.
func (e *engine) replyArrive(m *message) {
	t := &e.threads[m.dst]
	if t.state != tsWaitReply {
		panic(fmt.Sprintf("sim: reply for thread %d in state %d", t.id, t.state))
	}
	p := &e.procs[t.proc]
	net := e.netFor(e.threads[m.src].proc, t.proc)
	resume := e.now + net.Config().RecvOverhead
	// If the blocked thread's processor is mid-service, the thread
	// resumes only when the handler completes.
	if p.svcBusyUntil > resume {
		resume = p.svcBusyUntil
	}
	e.emit(e.now, trace.KindMsgRecv, t.id, int64(m.src), m.bytes, int64(mReply))
	ev := t.peek()
	e.emit(resume, trace.KindRemoteRead, t.id, ev.Arg0, ev.Arg1, ev.Arg2)
	t.stats.CommWait += resume - t.blockAt
	e.consume(t, ev)
	e.continueThread(t, resume)
}
