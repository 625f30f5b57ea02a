// Package pcxx implements the object-parallel runtime system that plays
// the role of pC++ in the extrapolation pipeline: distributed collections
// of elements, owner-computes parallel execution, global barrier
// synchronization, and remote element access — all instrumented so that a
// run of an n-thread program on one (virtual) processor produces the
// high-level event trace that trace translation and simulation consume.
//
// Programs are written SPMD-style: a body function runs once per thread
// under the non-preemptive threads package, all threads sharing one
// virtual clock (they are timesliced on a single processor, switching only
// at barriers, exactly the execution environment E1 of the paper).
package pcxx

import (
	"fmt"

	"extrap/internal/threads"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// SizeMode selects how the instrumentation attributes transfer sizes to
// remote access events — the measurement abstraction at the center of the
// paper's Grid investigation (Figure 5).
type SizeMode uint8

const (
	// CompilerEstimate records the collection's whole-element size for
	// every remote access, as the original high-level pC++ measurement
	// did (cheap: no per-access size bookkeeping, but pessimistic when
	// the compiler requests only part of an element).
	CompilerEstimate SizeMode = iota
	// ActualSize records the bytes actually requested by the access.
	ActualSize
)

func (m SizeMode) String() string {
	if m == CompilerEstimate {
		return "compiler-estimate"
	}
	return "actual-size"
}

// Config parameterizes a measurement run.
type Config struct {
	// Threads is the number of program threads n.
	Threads int
	// Cost is the computation cost model of the measurement host.
	Cost CostModel
	// EventOverhead is the instrumentation cost charged to the virtual
	// clock for each recorded event. Trace translation compensates for
	// it; tests verify the compensation is exact.
	EventOverhead vtime.Time
	// SizeMode selects transfer-size attribution for remote accesses.
	SizeMode SizeMode
	// Seed feeds the per-thread deterministic random streams.
	Seed uint64
	// Interrupt, when non-nil, is polled periodically during the run (at
	// event records and compute charges); a non-nil return aborts the
	// measurement with that error. This is how callers bound the
	// wall-clock time of an otherwise run-to-completion virtual-clock
	// execution — context.Context.Err is the intended value. Interrupt
	// never affects the virtual clock or the trace, so an uninterrupted
	// run is byte-identical with or without it.
	Interrupt func() error
}

// DefaultConfig returns a measurement configuration for n threads on the
// Sun-4 cost model with zero instrumentation overhead.
func DefaultConfig(n int) Config {
	return Config{Threads: n, Cost: Sun4(), Seed: 0x5eed}
}

// Runtime is the shared state of one measurement run: the global virtual
// clock, the trace being recorded, barrier bookkeeping, and the registered
// collections' global element space.
type Runtime struct {
	cfg   Config
	clock *vtime.VirtualClock
	tr    *trace.Trace

	arrived    int
	waiting    []*threads.Thread
	barrierSeq []int64 // per-thread next barrier id

	nextCollectionID int32
	threadCtxs       []*Thread

	interruptCtr int
}

// interruptEvery is how many recorded events / compute charges pass
// between Interrupt polls — frequent enough that a cancelled run stops
// within microseconds of real work, rare enough to stay off the
// measurement hot path.
const interruptEvery = 4096

// checkInterrupt polls cfg.Interrupt every interruptEvery calls and
// aborts the run by panicking with the returned error; the cooperative
// scheduler converts the panic into an error from Run and unwinds every
// thread, so an interrupted measurement leaks nothing.
func (rt *Runtime) checkInterrupt() {
	if rt.cfg.Interrupt == nil {
		return
	}
	if rt.interruptCtr++; rt.interruptCtr < interruptEvery {
		return
	}
	rt.interruptCtr = 0
	if err := rt.cfg.Interrupt(); err != nil {
		panic(fmt.Errorf("measurement interrupted: %w", err))
	}
}

// NewRuntime prepares a runtime; collections are registered against it
// before Run executes the program body.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Threads <= 0 {
		panic(fmt.Sprintf("pcxx: invalid thread count %d", cfg.Threads))
	}
	rt := &Runtime{
		cfg:        cfg,
		clock:      vtime.NewVirtualClock(0),
		tr:         trace.New(cfg.Threads),
		barrierSeq: make([]int64, cfg.Threads),
	}
	rt.tr.EventOverhead = cfg.EventOverhead
	return rt
}

// Threads returns n, the number of program threads.
func (rt *Runtime) Threads() int { return rt.cfg.Threads }

// Config returns the run configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Now returns the current virtual time of the measurement run.
func (rt *Runtime) Now() vtime.Time { return rt.clock.Now() }

// record appends an event at the current virtual time and charges the
// instrumentation overhead.
func (rt *Runtime) record(e trace.Event) {
	rt.checkInterrupt()
	e.Time = rt.clock.Now()
	rt.tr.Append(e)
	rt.clock.Advance(rt.cfg.EventOverhead)
}

// Run executes body once per thread under the cooperative scheduler and
// returns the merged measurement trace. The trace is validated before it
// is returned; a validation failure indicates a bug in the program (e.g.
// divergent barrier structure) and is reported as an error.
func (rt *Runtime) Run(body func(*Thread)) (*trace.Trace, error) {
	rt.threadCtxs = make([]*Thread, rt.cfg.Threads)
	rng := vtime.NewRand(rt.cfg.Seed)
	seeds := make([]uint64, rt.cfg.Threads)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	sched := threads.New(rt.cfg.Threads, func(th *threads.Thread) {
		t := &Thread{
			id:  th.ID(),
			rt:  rt,
			th:  th,
			rng: vtime.NewRand(seeds[th.ID()]),
		}
		rt.threadCtxs[th.ID()] = t
		rt.record(trace.Event{Kind: trace.KindThreadStart, Thread: int32(t.id), Arg0: int64(rt.cfg.Threads)})
		body(t)
		rt.record(trace.Event{Kind: trace.KindThreadEnd, Thread: int32(t.id)})
	})
	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("pcxx: %w", err)
	}
	if err := rt.tr.Validate(); err != nil {
		return nil, fmt.Errorf("pcxx: program produced malformed trace: %w", err)
	}
	return rt.tr, nil
}

// Trace exposes the trace under construction (used by collections to
// intern phase names).
func (rt *Runtime) Trace() *trace.Trace { return rt.tr }

// Thread is the per-thread execution context handed to the program body:
// the pC++ "processor object" view. All computation-time charging, barrier
// synchronization, and collection access flow through it.
type Thread struct {
	id  int
	rt  *Runtime
	th  *threads.Thread
	rng *vtime.Rand
}

// ID returns the thread index in [0, n).
func (t *Thread) ID() int { return t.id }

// N returns the total number of program threads.
func (t *Thread) N() int { return t.rt.cfg.Threads }

// Rand returns the thread's private deterministic random stream.
func (t *Thread) Rand() *vtime.Rand { return t.rng }

// Now returns the current virtual time.
func (t *Thread) Now() vtime.Time { return t.rt.clock.Now() }

// Compute charges d of raw computation time to the virtual clock.
func (t *Thread) Compute(d vtime.Time) {
	if d < 0 {
		panic("pcxx: negative compute time")
	}
	t.rt.checkInterrupt()
	t.rt.clock.Advance(d)
}

// Flops charges the cost of n floating-point operations.
func (t *Thread) Flops(n int) {
	t.Compute(vtime.Time(n) * t.rt.cfg.Cost.FlopTime)
}

// Ops charges the cost of n integer/control operations.
func (t *Thread) Ops(n int) {
	t.Compute(vtime.Time(n) * t.rt.cfg.Cost.IntOpTime)
}

// Mem charges the cost of moving n bytes through local memory.
func (t *Thread) Mem(n int) {
	t.Compute(vtime.Time(n) * t.rt.cfg.Cost.MemByteTime)
}

// Call charges one runtime-call overhead.
func (t *Thread) Call() {
	t.Compute(t.rt.cfg.Cost.CallTime)
}

// rotateResume restores the historical resume order, in which the last
// thread to reach a barrier kept running after releasing the others, so
// each epoch started one thread later than the one before. Only tests
// set it, as the oracle proving that resume order never changes a
// per-thread trace or a prediction.
var rotateResume bool

// Barrier synchronizes all n threads at a global barrier: the thread
// records its entry, parks until the last thread arrives, and records its
// exit when rescheduled. On the 1-processor measurement host this is the
// only point where the processor switches threads — the property trace
// translation depends on.
//
// The last arriver releases the waiters and then yields behind them, so
// every barrier epoch runs its threads in id order. Each thread's events
// and compute deltas are the same in any order; a fixed order also makes
// the merged trace of a loop repeat every iteration instead of every n,
// which is what lets the miner find short loop bodies and replay skip
// them. The exit is recorded on resumption, as for every waiter, so no
// other thread's compute lands in this thread's next delta.
func (t *Thread) Barrier() {
	rt := t.rt
	seq := rt.barrierSeq[t.id]
	rt.barrierSeq[t.id]++
	rt.record(trace.Event{Kind: trace.KindBarrierEntry, Thread: int32(t.id), Arg0: seq})
	rt.arrived++
	if rt.arrived < rt.cfg.Threads {
		rt.waiting = append(rt.waiting, t.th)
		t.th.Park()
	} else {
		rt.arrived = 0
		for _, w := range rt.waiting {
			w.Unpark()
		}
		released := len(rt.waiting) > 0
		rt.waiting = rt.waiting[:0]
		if released && !rotateResume {
			t.th.Yield()
		}
	}
	rt.record(trace.Event{Kind: trace.KindBarrierExit, Thread: int32(t.id), Arg0: seq})
}

// Phase brackets a named program phase: it records a phase-begin event,
// runs f, and records phase-end. Phases are annotations for analysis; they
// do not synchronize.
func (t *Thread) Phase(name string, f func()) {
	id := t.rt.tr.PhaseID(name)
	t.rt.record(trace.Event{Kind: trace.KindPhaseBegin, Thread: int32(t.id), Arg0: id})
	f()
	t.rt.record(trace.Event{Kind: trace.KindPhaseEnd, Thread: int32(t.id), Arg0: id})
}
