package extrap

import (
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// TestFacadePipeline exercises the public API end to end.
func TestFacadePipeline(t *testing.T) {
	const threads = 4
	p := Program{
		Name:    "facade-test",
		Threads: threads,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			c := pcxx.PerThread[float64](rt, "c", 32)
			return func(th *pcxx.Thread) {
				*c.Local(th, th.ID()) = float64(th.ID())
				th.Barrier()
				th.Compute(100 * vtime.Microsecond)
				_ = c.Read(th, (th.ID()+1)%threads)
				th.Barrier()
			}
		},
	}
	env, err := Environment("generic-dm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Measure(p, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Extrapolate(tr, env.Config)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.TotalTime <= 0 {
		t.Fatal("no predicted time")
	}
	if out.Result.TotalTime < out.Ideal {
		t.Fatalf("prediction %v below ideal %v", out.Result.TotalTime, out.Ideal)
	}
}

func TestFacadeInventory(t *testing.T) {
	envs := Environments()
	if len(envs) != 4 {
		t.Fatalf("Environments() = %d entries", len(envs))
	}
	// Exact counts would be brittle: any linked package may register
	// workloads (internal/compose's presets self-register), and which
	// ones are linked depends on the test binary's import graph. The
	// facade contract is that the paper's kernels are always there.
	names := BenchmarkNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"cyclic", "embar", "grid", "matmul", "mgrid", "poisson", "sort", "sparse"} {
		if !have[want] {
			t.Errorf("BenchmarkNames() missing %q: %v", want, names)
		}
	}
	if _, err := Environment("bogus"); err == nil {
		t.Error("unknown environment accepted")
	}
}

func TestFacadeSpeedup(t *testing.T) {
	sp := Speedup([]Point{{Procs: 1, Time: 100}, {Procs: 2, Time: 50}})
	if sp[1] != 2 {
		t.Fatalf("speedup = %v", sp)
	}
}
