package threads

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// concurrentScenarios are the ways a run can end, each returning an error
// when its outcome is not exactly the expected one.
var concurrentScenarios = []struct {
	name  string
	check func(n int) error
}{
	{"complete", checkComplete},
	{"park-unpark", checkParkUnpark},
	{"panic", checkPanic},
	{"deadlock", checkDeadlock},
	{"interrupt", checkInterrupt},
}

// TestConcurrentSchedulers runs many schedulers at once from several
// goroutines, as a server does when it measures on pool workers. Every
// scheduler must keep its own baton: each run ends exactly as it would
// alone, and no thread goroutine outlives its run.
func TestConcurrentSchedulers(t *testing.T) {
	const workers, rounds, n = 4, 20, 8
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(concurrentScenarios))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range concurrentScenarios {
					sc := concurrentScenarios[(i+w)%len(concurrentScenarios)]
					if err := sc.check(n + w); err != nil {
						errs <- fmt.Errorf("worker %d round %d %s: %w", w, r, sc.name, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines fails the test unless the goroutine count drops back
// to before: exited threads finish asynchronously after their last
// hand-off, so the runtime gets a moment to reap them.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roundRobin is the dispatch order of n threads that each run rounds
// segments separated by Yield (or by a barrier built on Park/Unpark).
func roundRobin(n, rounds int) []int {
	var want []int
	for r := 0; r < rounds; r++ {
		for id := 0; id < n; id++ {
			want = append(want, id)
		}
	}
	return want
}

func sameOrder(got, want []int) error {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("dispatch order %v, want %v", got, want)
	}
	return nil
}

func checkComplete(n int) error {
	const rounds = 5
	var order []int
	s := New(n, func(th *Thread) {
		for i := 0; i < rounds; i++ {
			order = append(order, th.ID())
			th.Yield()
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	for _, th := range s.threads {
		if th.state != StateDone {
			return fmt.Errorf("thread %d ended %v", th.ID(), th.state)
		}
	}
	return sameOrder(order, roundRobin(n, rounds))
}

// checkParkUnpark runs a rendezvous built the way the pcxx barrier is:
// arrivals park, the last one unparks them and yields behind them, so
// every epoch resumes in id order.
func checkParkUnpark(n int) error {
	const epochs = 4
	var order, waiting []int
	var threads []*Thread
	s := New(n, func(th *Thread) {
		order = append(order, th.ID())
		for e := 0; e < epochs; e++ {
			if len(waiting) < n-1 {
				waiting = append(waiting, th.ID())
				th.Park()
			} else {
				for _, id := range waiting {
					threads[id].Unpark()
				}
				waiting = waiting[:0]
				th.Yield()
			}
			order = append(order, th.ID())
		}
	})
	threads = s.threads
	if err := s.Run(); err != nil {
		return err
	}
	return sameOrder(order, roundRobin(n, epochs+1))
}

// checkPanic: thread 3 panics in its second segment; threads before it
// finish, threads after it never resume, and the run reports the panic.
func checkPanic(n int) error {
	second := make([]bool, n)
	s := New(n, func(th *Thread) {
		th.Yield()
		if th.ID() == 3 {
			panic("boom")
		}
		second[th.ID()] = true
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "thread panicked: boom") {
		return fmt.Errorf("Run() = %v, want the panic", err)
	}
	for id, ran := range second {
		if ran != (id < 3) {
			return fmt.Errorf("thread %d second segment ran=%v", id, ran)
		}
	}
	return nil
}

func checkDeadlock(n int) error {
	s := New(n, func(th *Thread) {
		th.Yield()
		th.Park()
	})
	err := s.Run()
	want := fmt.Sprintf("deadlock — %d live threads", n)
	if err == nil || !strings.Contains(err.Error(), want) {
		return fmt.Errorf("Run() = %v, want %q", err, want)
	}
	return nil
}

// checkInterrupt: threads spin on Yield until another goroutine cancels
// their context, then fail with its error, as a cancelled measurement
// does; the cause must survive errors.Is.
func checkInterrupt(n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Millisecond, cancel)
	s := New(n, func(th *Thread) {
		for {
			if err := ctx.Err(); err != nil {
				panic(fmt.Errorf("interrupted: %w", err))
			}
			th.Yield()
		}
	})
	if err := s.Run(); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("Run() = %v, want context.Canceled", err)
	}
	return nil
}
