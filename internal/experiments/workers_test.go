package experiments

import (
	"bytes"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/sim"
)

func mustBench(t *testing.T, name string) benchmarks.Benchmark {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func freeCfg() sim.Config { return machine.GenericDM().Config }

// freeEnvs is freeCfg's machine as the one-machine list a ladder runs.
func freeEnvs() []machine.Env { return []machine.Env{machine.GenericDM()} }

// renderExperiment runs one experiment and returns its rendered bytes.
func renderExperiment(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out.Render(&buf)
	return buf.Bytes()
}

// TestWorkersDeterministic: a parameter-grid experiment must produce
// byte-identical output at any worker count. fig7 exercises the full
// concurrent path — memo-cached measurements shared across six
// configurations, cells fanned across the pool — and fig9 the
// per-cell fan-out with two predictors per trace. Run under -race this
// also proves the shared-trace simulation path is data-race-free.
func TestWorkersDeterministic(t *testing.T) {
	for _, id := range []string{"fig7", "fig9"} {
		t.Run(id, func(t *testing.T) {
			procs := []int{1, 2, 4, 8}
			sequential := renderExperiment(t, id, Options{Quick: true, Procs: procs, Workers: 1})
			parallel := renderExperiment(t, id, Options{Quick: true, Procs: procs, Workers: 4})
			if !bytes.Equal(sequential, parallel) {
				t.Errorf("Workers=4 output differs from Workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
					sequential, parallel)
			}
		})
	}
}

// TestRunnerCachesMeasurements: fig7's six configurations over one
// benchmark must measure each ladder point once, not once per curve.
func TestRunnerCachesMeasurements(t *testing.T) {
	mgridJobCount := 6 // 2 ratios × 3 startups
	procs := []int{1, 2, 4}
	// The runner is experiment-internal, so assert on fig7's shape
	// directly: six same-benchmark jobs over the ladder must report
	// len(procs) measurements, not jobs×procs.
	r := newRunner(Options{Quick: true, Procs: procs, Workers: 2})
	var jobs []sweepJob
	for i := 0; i < mgridJobCount; i++ {
		b := mustBench(t, "mgrid")
		jobs = append(jobs, r.job(b, 0, freeCfg(), procs))
	}
	if _, err := r.runGrid(jobs); err != nil {
		t.Fatal(err)
	}
	hits, misses := r.cache.Stats()
	if want := int64(len(procs)); misses != want {
		t.Errorf("grid measured %d traces, want %d (memoized)", misses, want)
	}
	if want := int64((mgridJobCount - 1) * len(procs)); hits != want {
		t.Errorf("cache hits = %d, want %d", hits, want)
	}
}
