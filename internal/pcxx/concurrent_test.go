package pcxx

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"extrap/internal/vtime"
)

// TestConcurrentRuntimes measures on several goroutines at once, as a
// server's pool workers do. A run that completes must record exactly the
// trace it records alone; interrupted, panicking and deadlocked runs must
// each fail with their own cause; and no thread goroutine may outlive
// its run.
func TestConcurrentRuntimes(t *testing.T) {
	const n = 6
	program := func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Compute(vtime.Time(100 * (th.ID() + 1)))
			th.Barrier()
		}
	}
	ref, err := NewRuntime(DefaultConfig(n)).Run(program)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("deadline hit")
	runs := []struct {
		name  string
		check func() error
	}{
		{"complete", func() error {
			tr, err := NewRuntime(DefaultConfig(n)).Run(program)
			if err != nil {
				return err
			}
			if fmt.Sprint(tr.Events) != fmt.Sprint(ref.Events) {
				return errors.New("trace differs from the run measured alone")
			}
			return nil
		}},
		{"interrupt", func() error {
			cfg := DefaultConfig(n)
			polls := 0
			cfg.Interrupt = func() error {
				if polls++; polls >= 2 {
					return sentinel
				}
				return nil
			}
			_, err := NewRuntime(cfg).Run(func(th *Thread) {
				for {
					th.Compute(1)
					th.Barrier()
				}
			})
			if !errors.Is(err, sentinel) {
				return fmt.Errorf("Run() = %v, want the interrupt's error", err)
			}
			return nil
		}},
		{"panic", func() error {
			_, err := NewRuntime(DefaultConfig(n)).Run(func(th *Thread) {
				th.Barrier()
				if th.ID() == 2 {
					panic("boom")
				}
				th.Barrier()
			})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				return fmt.Errorf("Run() = %v, want the panic", err)
			}
			return nil
		}},
		{"deadlock", func() error {
			_, err := NewRuntime(DefaultConfig(n)).Run(func(th *Thread) {
				if th.ID() != 0 { // thread 0 never arrives
					th.Barrier()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				return fmt.Errorf("Run() = %v, want a deadlock", err)
			}
			return nil
		}},
	}

	const workers, rounds = 4, 15
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(runs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range runs {
					run := runs[(i+w)%len(runs)]
					if err := run.check(); err != nil {
						errs <- fmt.Errorf("worker %d round %d %s: %w", w, r, run.name, err)
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
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
