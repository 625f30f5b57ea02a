package threads

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRunToCompletionOrder(t *testing.T) {
	var order []int
	s := New(4, func(th *Thread) {
		order = append(order, th.ID())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (deterministic round-robin)", order, want)
		}
	}
}

func TestYieldInterleaving(t *testing.T) {
	var order []int
	s := New(3, func(th *Thread) {
		for i := 0; i < 2; i++ {
			order = append(order, th.ID())
			th.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNonPreemption(t *testing.T) {
	// A thread that never yields must run to completion before any other
	// thread observes shared state mid-flight.
	var counter int
	var snapshots []int
	s := New(2, func(th *Thread) {
		if th.ID() == 0 {
			for i := 0; i < 1000; i++ {
				counter++
			}
		} else {
			snapshots = append(snapshots, counter)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snapshots) != 1 || snapshots[0] != 1000 {
		t.Fatalf("thread 1 observed counter=%v; thread 0 was preempted", snapshots)
	}
}

func TestParkUnpark(t *testing.T) {
	var log []string
	var threads []*Thread
	s := New(2, func(th *Thread) {
		if th.ID() == 0 {
			log = append(log, "0:parking")
			th.Park()
			log = append(log, "0:resumed")
		} else {
			log = append(log, "1:waking-0")
			threads[0].Unpark()
		}
	})
	threads = s.threads
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(log, ",")
	want := "0:parking,1:waking-0,0:resumed"
	if got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(2, func(th *Thread) {
		th.Park() // nobody will ever wake us
	})
	err := s.Run()
	if err == nil {
		t.Fatal("Run() succeeded on a deadlocked program")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error %q does not mention deadlock", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	s := New(2, func(th *Thread) {
		if th.ID() == 1 {
			panic("boom")
		}
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run() = %v, want panic propagation", err)
	}
}

func TestUnparkNotParkedPanics(t *testing.T) {
	var threads []*Thread
	s := New(2, func(th *Thread) {
		if th.ID() == 0 {
			th.Yield()
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Unpark of ready thread did not panic")
			}
		}()
		threads[0].Unpark() // thread 0 is ready, not parked
	})
	threads = s.threads
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStateTransitions(t *testing.T) {
	var sawRunning bool
	s := New(1, func(th *Thread) {
		sawRunning = th.state == StateRunning
	})
	th := s.threads[0]
	if th.state != StateReady {
		t.Fatalf("initial state = %v, want ready", th.state)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawRunning {
		t.Error("thread did not observe itself running")
	}
	if th.state != StateDone {
		t.Fatalf("final state = %v, want done", th.state)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateReady: "ready", StateRunning: "running",
		StateParked: "parked", StateDone: "done", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestZeroThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	New(0, func(*Thread) {})
}

func TestManyThreadsManyYields(t *testing.T) {
	const n, rounds = 64, 50
	counts := make([]int, n)
	s := New(n, func(th *Thread) {
		for i := 0; i < rounds; i++ {
			counts[th.ID()]++
			th.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Fatalf("thread %d ran %d rounds, want %d", i, c, rounds)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		var order []int
		s := New(8, func(th *Thread) {
			for i := 0; i < 5; i++ {
				order = append(order, th.ID())
				if th.ID()%2 == 0 {
					th.Yield()
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFailedRunLeaksNoGoroutines: deadlocked and panicked runs must
// unwind every unfinished thread before Run returns — a long-lived
// server aborts many measurement runs, so each leak would accumulate.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New(8, func(th *Thread) {
			th.Park() // nobody will ever wake us
		})
		if err := s.Run(); err == nil {
			t.Fatal("deadlocked run succeeded")
		}
		s = New(8, func(th *Thread) {
			if th.ID() == 3 {
				panic("boom")
			}
			th.Yield()
		})
		if err := s.Run(); err == nil {
			t.Fatal("panicked run succeeded")
		}
	}
	// Unwound goroutines finish asynchronously after exit(); give the
	// runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		after := runtime.NumGoroutine()
		if after <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 100 failed runs", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicErrorIsWrapped: a thread body that panics with an error must
// surface it unwrapped to errors.Is, so cancellation sentinels survive
// the trip through the scheduler.
func TestPanicErrorIsWrapped(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	s := New(2, func(th *Thread) {
		if th.ID() == 0 {
			panic(fmt.Errorf("wrapped: %w", sentinel))
		}
	})
	err := s.Run()
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("Run() = %v, want errors.Is(err, sentinel)", err)
	}
}

// TestAbortedThreadsNeverRunBodies: threads that were never dispatched
// before the run failed must not execute their bodies during unwind.
func TestAbortedThreadsNeverRunBodies(t *testing.T) {
	var ran [4]bool
	s := New(4, func(th *Thread) {
		ran[th.ID()] = true
		if th.ID() == 0 {
			panic("early failure")
		}
	})
	if err := s.Run(); err == nil {
		t.Fatal("panicked run succeeded")
	}
	if !ran[0] {
		t.Fatal("thread 0 never ran")
	}
	for id := 1; id < 4; id++ {
		if ran[id] {
			t.Errorf("thread %d body ran after the scheduler aborted", id)
		}
	}
}
