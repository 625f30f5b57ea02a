package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"extrap/internal/benchmarks"
	_ "extrap/internal/compose" // registers the compose presets
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// predicateThreads are the thread counts the predicate is checked at.
var predicateThreads = []int{1, 2, 3, 4, 8, 16, 32, 64}

// wantFlagged lists, per registry program at default sizes, the thread
// counts where NeverFastForwards must not clear the program: grid and
// sparse fast-forward, matmul's short programs and mgrid's long ones
// hold repeats that could be attempted. Every other program and thread
// count must be cleared, so a weaker bound (one without the snapshot
// stride or the fingerprint-slot term) fails here.
var wantFlagged = map[string][]int{
	"grid":   predicateThreads,
	"sparse": predicateThreads,
	"matmul": {1, 2, 3},
	"mgrid":  {16, 32, 64},
}

// TestNeverFastForwardsIsSound: whenever the predicate clears a
// program, a streaming run of it on every machine preset at procs t,
// t/2 and 1 makes no fast-forward attempt, counted per run. The
// predicate's verdicts over the registry (compose presets included) are
// pinned too.
func TestNeverFastForwardsIsSound(t *testing.T) {
	for _, b := range benchmarks.All() {
		f := b.Factory(b.DefaultSize())
		for _, n := range predicateThreads {
			tr, err := core.Measure(f(n), core.MeasureOptions{SizeMode: pcxx.ActualSize})
			if err != nil {
				continue // a thread count the kernel does not support
			}
			var buf bytes.Buffer
			if err := trace.WriteBinary2(&buf, tr); err != nil {
				t.Fatal(err)
			}
			ct, err := trace.CompileBinary(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			cleared := sim.NeverFastForwards(ct)
			if want := !slices.Contains(wantFlagged[b.Name()], n); cleared != want {
				t.Errorf("%s/%d: NeverFastForwards = %v, want %v", b.Name(), n, cleared, want)
			}
			if cleared {
				if err := zeroAttempts(ct, n); err != nil {
					t.Errorf("%s/%d: %v", b.Name(), n, err)
				}
			}
			ct.Release()
		}
	}
}

// zeroAttempts streams ct on every machine preset at procs n, n/2 and 1
// and fails on any run that attempts a fast-forward.
func zeroAttempts(ct *trace.CompiledTrace, n int) error {
	procs := []int{n}
	if n%2 == 0 && n > 2 {
		procs = append(procs, n/2)
	}
	if n > 1 {
		procs = append(procs, 1)
	}
	for _, env := range machine.Presets() {
		for _, p := range procs {
			cfg := env.Config
			cfg.Procs = p
			ps := ct.Source()
			s, err := translate.NewStream(ps.Header(), ps, translate.StreamOptions{})
			if err != nil {
				return err
			}
			_, attempts, err := sim.SimulateStreamAttempts(context.Background(), s, cfg)
			s.Release()
			if err != nil {
				return fmt.Errorf("%s procs %d: %v", env.Name, p, err)
			}
			if attempts != 0 {
				return fmt.Errorf("%s procs %d: %d fast-forward attempts on a program the predicate cleared", env.Name, p, attempts)
			}
		}
	}
	return nil
}
