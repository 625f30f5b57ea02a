// Package threads implements the non-preemptive user-level threads package
// that the 1-processor measurement run of the extrapolation technique
// requires (the role AWESIME played for the original ExtraP).
//
// All program threads execute on a single logical processor under a
// deterministic, strictly cooperative scheduler: a thread runs until it
// explicitly yields (at a barrier, a park, or an explicit Yield), and the
// scheduler then hands the processor to the next runnable thread in
// round-robin order. This discipline is what makes trace translation
// sound: the time between two consecutive events of a thread is pure,
// uninterrupted computation of that thread.
//
// The ready queue is FIFO: threads start in id order, and Yield and
// Unpark append to the back. Which thread runs next never changes what a
// thread computes or the deltas between its events, but it does decide
// the order of the merged 1-processor trace. Callers that want that
// trace to repeat with the program's loops keep the order fixed: the
// pcxx barrier unparks its waiters in arrival order and then yields the
// last arriver behind them, so every barrier epoch runs in id order. (If
// the last arriver kept running instead, each epoch would start one
// thread later than the one before, and an n-thread loop's merged trace
// would repeat only every n iterations.)
//
// The implementation maps each user thread onto a goroutine but enforces
// mutual exclusion with a baton: exactly one goroutine (a thread or the
// scheduler) runs at any instant, and hand-offs are explicit channel
// sends. The result is deterministic regardless of GOMAXPROCS.
package threads

import (
	"fmt"
)

// State describes where a thread is in its lifecycle.
type State uint8

// Thread states.
const (
	// StateReady means the thread is runnable and waiting for the baton.
	StateReady State = iota
	// StateRunning means the thread currently holds the baton.
	StateRunning
	// StateParked means the thread is blocked until Unpark.
	StateParked
	// StateDone means the thread's body has returned.
	StateDone
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is one cooperative thread managed by a Scheduler.
type Thread struct {
	id    int
	sched *Scheduler
	state State
	// resume delivers the baton to this thread. Buffered so the scheduler
	// never blocks handing it over before the thread is receiving.
	resume chan struct{}
}

// ID returns the thread's index in [0, N).
func (t *Thread) ID() int { return t.id }

// State returns the thread's current lifecycle state. Only meaningful when
// called from scheduler context or from the thread itself.
func (t *Thread) State() State { return t.state }

// Yield gives up the processor; the thread remains runnable and will run
// again after every other ready thread has had a turn.
func (t *Thread) Yield() {
	t.state = StateReady
	t.sched.ready = append(t.sched.ready, t)
	t.switchToScheduler()
}

// Park blocks the thread until some other thread (or scheduler hook)
// calls Unpark. Parking with no possible waker deadlocks the program and
// is reported by the scheduler.
func (t *Thread) Park() {
	t.state = StateParked
	t.switchToScheduler()
}

// Unpark makes a parked thread runnable again (appended to the ready
// queue). It must be called from a running thread or scheduler hook; it
// panics if the target is not parked, because a double wake-up indicates
// corrupted synchronization logic.
func (t *Thread) Unpark() {
	if t.state != StateParked {
		panic(fmt.Sprintf("threads: Unpark of thread %d in state %v", t.id, t.state))
	}
	t.state = StateReady
	t.sched.ready = append(t.sched.ready, t)
}

// switchToScheduler hands the baton back and blocks until the scheduler
// resumes this thread. A resume during scheduler abort unwinds the
// thread's stack instead of returning to the body.
func (t *Thread) switchToScheduler() {
	t.sched.baton <- schedToken{}
	<-t.resume
	if t.sched.aborting {
		panic(abortPanic{})
	}
	t.state = StateRunning
}

// exit marks the thread done and hands the baton back permanently.
func (t *Thread) exit() {
	t.state = StateDone
	t.sched.live--
	t.sched.baton <- schedToken{}
}

type schedToken struct{}

// abortPanic unwinds a thread's stack when the scheduler aborts a failed
// run; it is swallowed by the thread's recover rather than reported as a
// program panic.
type abortPanic struct{}

// Scheduler runs N cooperative threads to completion.
type Scheduler struct {
	threads []*Thread
	ready   []*Thread
	live    int
	// baton receives control whenever a thread yields, parks, or exits.
	baton chan schedToken
	// panicked carries a panic value out of a thread body.
	panicked any
	// aborting makes every resumed thread unwind instead of run; set by
	// unwind once Run has decided to fail.
	aborting bool
}

// New creates a scheduler with n threads executing body(thread). The
// threads do not start until Run is called.
func New(n int, body func(*Thread)) *Scheduler {
	if n <= 0 {
		panic("threads: scheduler needs at least one thread")
	}
	s := &Scheduler{
		baton: make(chan schedToken),
		live:  n,
	}
	for i := 0; i < n; i++ {
		t := &Thread{
			id:     i,
			sched:  s,
			state:  StateReady,
			resume: make(chan struct{}, 1),
		}
		s.threads = append(s.threads, t)
		s.ready = append(s.ready, t)
		go func(t *Thread) {
			<-t.resume // wait for first dispatch
			defer func() {
				if r := recover(); r != nil {
					if _, abort := r.(abortPanic); !abort && s.panicked == nil {
						s.panicked = r
					}
				}
				t.exit()
			}()
			if s.aborting {
				return // resumed only to be released; never run the body
			}
			t.state = StateRunning
			body(t)
		}(t)
	}
	return s
}

// Threads returns the scheduler's threads, indexed by id.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Run dispatches threads round-robin until all have finished. It returns
// an error if the program deadlocks (live threads remain but none are
// runnable) or if any thread body panicked. A panic value that is an
// error is wrapped, so errors.Is sees through to the cause — the path a
// cancelled measurement takes out of the runtime. On any failure every
// unfinished thread is unwound before Run returns, so a failed run
// leaks no goroutines.
func (s *Scheduler) Run() error {
	for s.live > 0 {
		if len(s.ready) == 0 {
			parked := []int{}
			for _, t := range s.threads {
				if t.state == StateParked {
					parked = append(parked, t.id)
				}
			}
			s.unwind()
			return fmt.Errorf("threads: deadlock — %d live threads, none runnable (parked: %v)", s.live, parked)
		}
		next := s.ready[0]
		s.ready = s.ready[1:]
		next.resume <- struct{}{}
		<-s.baton
		if s.panicked != nil {
			s.unwind()
			if err, ok := s.panicked.(error); ok {
				return fmt.Errorf("threads: thread failed: %w", err)
			}
			return fmt.Errorf("threads: thread panicked: %v", s.panicked)
		}
	}
	return nil
}

// unwind releases every unfinished thread after Run has decided to fail:
// each one is resumed into an immediate abort panic (or, if it never
// started, straight to exit), freeing its goroutine and stack. The baton
// discipline holds throughout — one hand-off per thread.
func (s *Scheduler) unwind() {
	s.aborting = true
	for _, t := range s.threads {
		if t.state == StateDone {
			continue
		}
		t.resume <- struct{}{}
		<-s.baton
	}
}
