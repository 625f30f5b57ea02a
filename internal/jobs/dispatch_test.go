package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/store"
	"extrap/internal/vtime"
)

// localRunner is a PointRunner backed by the local engine — the shape
// of a coordinator with the cluster stripped away, plus call
// accounting so tests can see exactly which cells were dispatched.
type localRunner struct {
	svc      *experiments.Service
	calls    atomic.Int64
	machines atomic.Int64 // cells requested across all calls
}

func (r *localRunner) RunPoint(ctx context.Context, bench string, workload []byte, sz benchmarks.Size, threads int, machines []string) ([]vtime.Time, error) {
	r.calls.Add(1)
	r.machines.Add(int64(len(machines)))
	b := benchmarks.Benchmark(nil)
	if len(workload) > 0 {
		w, err := compose.FromJSON(workload)
		if err != nil {
			return nil, err
		}
		b = w
	} else {
		b = mustBench(bench)
	}
	out := make([]vtime.Time, len(machines))
	for i, name := range machines {
		env, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		pred, err := r.svc.Predict(ctx, b, sz, threads, pcxx.ActualSize, env.Config)
		if err != nil {
			return nil, err
		}
		out[i] = pred.Result.TotalTime
	}
	return out, nil
}

func mustBench(name string) benchmarks.Benchmark {
	b, err := benchmarks.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// newDispatchManager builds a manager whose grid runs through a
// PointRunner, as a coordinator's does.
func newDispatchManager(t *testing.T, dir string, run PointRunner) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := experiments.NewService(2, 64, 0)
	svc.SetBackend(st)
	m, err := Open(Config{
		Dir:      filepath.Join(dir, "jobs"),
		Service:  svc,
		Store:    st,
		Workers:  1,
		Dispatch: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, st
}

// rewriteRunning rewrites a persisted job file to the state a SIGKILL
// mid-run leaves: status running, no recorded points. Cell records
// survive in the artifact store, not the job file.
func rewriteRunning(t *testing.T, jobsDir, id string) {
	t.Helper()
	path := filepath.Join(jobsDir, id+".json")
	jf, err := readJobFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jf.Status = StatusRunning
	jf.Done = 0
	jf.Points = nil
	body, err := json.Marshal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchedJobMatchesLocal: a job run through a PointRunner lands
// on the same persisted points as the same job run through the local
// engine — the dispatch path changes where cells execute, not what
// they produce.
func TestDispatchedJobMatchesLocal(t *testing.T) {
	spec := Spec{Benchmark: "grid", Size: 16, Iters: 4, Machines: []string{"cm5", "generic-dm"}, Procs: []int{1, 2, 4}}

	mLocal, _ := newTestManager(t, t.TempDir())
	idLocal, err := mLocal.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, mLocal, idLocal, StatusDone)

	svcForRunner := experiments.NewService(2, 64, 0)
	run := &localRunner{svc: svcForRunner}
	mDisp, _ := newDispatchManager(t, t.TempDir(), run)
	idDisp, err := mDisp.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, mDisp, idDisp, StatusDone)

	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Errorf("dispatched job curves differ from local:\n%+v\nvs\n%+v", got.Curves, want.Curves)
	}
	if run.calls.Load() != int64(len(spec.Procs)) {
		t.Errorf("RunPoint called %d times, want one per ladder point (%d)", run.calls.Load(), len(spec.Procs))
	}
}

// TestDispatchedJobResumesFromStore: after a crash-shaped restart, a
// dispatched job restores persisted cells from the store and dispatches
// ONLY the missing ones — shard-aware persistence is what makes a
// coordinator SIGKILL cheap.
func TestDispatchedJobResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Benchmark: "grid", Size: 16, Iters: 4, Machines: []string{"cm5", "generic-dm"}, Procs: []int{1, 2, 4}}

	svc1 := experiments.NewService(2, 64, 0)
	run1 := &localRunner{svc: svc1}
	m1, st1 := newDispatchManager(t, dir, run1)
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, m1, id, StatusDone)
	m1.Close()
	// The store directory is locked until its Store closes, as a crashed
	// process's lock is dropped by the OS.
	st1.Close()

	// Crash-shape the job file: running, no recorded points. Cell
	// records survive in the store.
	rewriteRunning(t, filepath.Join(dir, "jobs"), id)

	svc2 := experiments.NewService(2, 64, 0)
	run2 := &localRunner{svc: svc2}
	m2, _ := newDispatchManager(t, dir, run2)
	got := waitStatus(t, m2, id, StatusDone)

	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Errorf("resumed curves differ:\n%+v\nvs\n%+v", got.Curves, want.Curves)
	}
	if run2.calls.Load() != 0 {
		t.Errorf("resume dispatched %d points despite every cell being persisted", run2.calls.Load())
	}
	if st := m2.Stats(); st.CellsLoaded != int64(len(spec.Machines)*len(spec.Procs)) {
		t.Errorf("cells loaded = %d, want %d", st.CellsLoaded, len(spec.Machines)*len(spec.Procs))
	}
}

// TestDispatchedWorkloadJob: a composed-workload job dispatches its
// spec bytes with every point, the runner synthesizes the program from
// them, and the curves match the same job run through the local engine.
func TestDispatchedWorkloadJob(t *testing.T) {
	wlSpec := json.RawMessage(`{"size":8,"iters":2,"root":{"kind":"pipeline","stages":[
		{"kind":"task_farm","tasks":8,"grain":2},
		{"kind":"reduction","op":"tree"}]}}`)
	spec := Spec{Workload: wlSpec, Size: 8, Iters: 2, Machines: []string{"cm5", "generic-dm"}, Procs: []int{1, 2, 4}}

	mLocal, _ := newTestManager(t, t.TempDir())
	idLocal, err := mLocal.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, mLocal, idLocal, StatusDone)
	wl, err := compose.FromJSON(wlSpec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Spec.Benchmark != wl.Name() {
		t.Errorf("submitted workload job names %q, want derived %q", want.Spec.Benchmark, wl.Name())
	}

	run := &localRunner{svc: experiments.NewService(2, 64, 0)}
	mDisp, _ := newDispatchManager(t, t.TempDir(), run)
	idDisp, err := mDisp.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, mDisp, idDisp, StatusDone)

	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Errorf("dispatched workload job curves differ from local:\n%+v\nvs\n%+v", got.Curves, want.Curves)
	}
	if run.calls.Load() != int64(len(spec.Procs)) {
		t.Errorf("RunPoint called %d times, want %d", run.calls.Load(), len(spec.Procs))
	}
}
