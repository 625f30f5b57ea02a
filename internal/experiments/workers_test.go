package experiments

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
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

// countMeasurements wraps the runner's measurement step for the rest of
// the test, returning the number of measurements taken so far.
func countMeasurements(t *testing.T) func() int64 {
	var n atomic.Int64
	orig := measureProgram
	t.Cleanup(func() { measureProgram = orig })
	measureProgram = func(p core.Program, o core.MeasureOptions) (*trace.Trace, error) {
		n.Add(1)
		return orig(p, o)
	}
	return n.Load
}

// TestRunnerCachesMeasurements: a run measures each distinct key once.
// fig7's six configurations over one benchmark measure each ladder point
// once, not once per curve, and fig5's trace-statistics lookups of
// points its grid already measured take no measurement of their own.
func TestRunnerCachesMeasurements(t *testing.T) {
	measured := countMeasurements(t)
	procs := []int{1, 2, 4}
	r := newRunner(Options{Quick: true, Procs: procs, Workers: 2})
	var jobs []sweepJob
	for i := 0; i < 6; i++ { // 2 ratios × 3 startups
		jobs = append(jobs, r.job(mustBench(t, "mgrid"), 0, freeCfg(), procs))
	}
	if _, err := r.runGrid(jobs); err != nil {
		t.Fatal(err)
	}
	if got, want := measured(), int64(len(procs)); got != want {
		t.Errorf("fig7-shaped grid took %d measurements, want %d (one per ladder point)", got, want)
	}

	// fig5 sweeps grid under two size attributions, then reads both
	// attributions' traces at the largest processor count.
	before := measured()
	renderExperiment(t, "fig5", Options{Quick: true, Procs: procs, Workers: 2})
	if got, want := measured()-before, int64(2*len(procs)); got != want {
		t.Errorf("fig5 took %d measurements, want %d (two attributions per ladder point)", got, want)
	}
}

// mapBackend is an in-memory core.TraceBackend counting its lookups.
type mapBackend struct {
	mu   sync.Mutex
	data map[core.CacheKey][]byte
	gets int
}

func (b *mapBackend) GetTrace(key core.CacheKey, _ trace.Format) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	enc, ok := b.data[key]
	return enc, ok
}

func (b *mapBackend) PutTrace(key core.CacheKey, _ trace.Format, enc []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data[key] = enc
}

// TestRunnerBackend: with Options.Backend set, a run looks each key up
// once, measures what the backend lacks or holds undecodable bytes or a
// trace of another thread count for, and writes every fresh measurement
// through as XTRP2; a second run over the same backend measures nothing.
// Output never depends on the backend.
func TestRunnerBackend(t *testing.T) {
	measured := countMeasurements(t)
	procs := []int{1, 2, 4}
	want := renderExperiment(t, "fig7", Options{Quick: true, Procs: procs, Workers: 2})

	mgrid := mustBench(t, "mgrid")
	opts := Options{Quick: true, Procs: procs, Workers: 2}
	var keys []core.CacheKey
	for _, n := range procs {
		keys = append(keys, MeasurementKey("mgrid", opts.size(mgrid), n, core.MeasureOptions{SizeMode: pcxx.ActualSize}))
	}
	twoThreads := trace.New(2)
	for th := int32(0); th < 2; th++ {
		twoThreads.Append(trace.Event{Kind: trace.KindThreadStart, Thread: th, Arg0: 2})
		twoThreads.Append(trace.Event{Kind: trace.KindThreadEnd, Thread: th})
	}
	var misfiled bytes.Buffer
	if err := trace.WriteBinary2(&misfiled, twoThreads); err != nil {
		t.Fatal(err)
	}
	b := &mapBackend{data: map[core.CacheKey][]byte{
		keys[1]: []byte("not an XTRP2 trace"),
		keys[2]: misfiled.Bytes(),
	}}
	opts.Backend = b
	for i, wantMeasured := range []int64{int64(len(keys)), 0} {
		before := measured()
		if got := renderExperiment(t, "fig7", opts); !bytes.Equal(got, want) {
			t.Errorf("run %d over a backend printed different output", i)
		}
		if got := measured() - before; got != wantMeasured {
			t.Errorf("run %d took %d measurements, want %d", i, got, wantMeasured)
		}
		if b.gets != len(keys)*(i+1) {
			t.Errorf("after run %d: %d backend lookups, want %d (one per key per run)", i, b.gets, len(keys)*(i+1))
		}
	}
	for _, k := range keys {
		ct, err := trace.CompileBinary(b.data[k])
		if err != nil {
			t.Errorf("threads=%d: backend holds no XTRP2 trace: %v", k.Threads, err)
			continue
		}
		if n := ct.Header().NumThreads; n != k.Threads {
			t.Errorf("threads=%d: backend holds a %d-thread trace", k.Threads, n)
		}
		ct.Release()
	}
}
