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
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/store"
	"extrap/internal/vtime"
)

// localRunner is the local engine's RunPoint behind call accounting,
// so tests can see exactly which ladder points and machines ran.
type localRunner struct {
	svc      *experiments.Service
	calls    atomic.Int64
	machines atomic.Int64 // cells requested across all calls
}

func (r *localRunner) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
	r.calls.Add(1)
	r.machines.Add(int64(len(envs)))
	return r.svc.RunPoint(ctx, b, sz, f, threads, envs)
}

// newDispatchManager builds a manager whose ladder points run through
// run, as a coordinator's run through the cluster.
func newDispatchManager(t *testing.T, dir string, run experiments.PointRunner) (*Manager, *store.Store) {
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

// TestDispatchedJobMatchesLocal: a job run through a Dispatch runner lands
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
	if cells := int64(len(spec.Machines) * len(spec.Procs)); run.machines.Load() != cells {
		t.Errorf("RunPoint asked for %d cells, want each of the %d once", run.machines.Load(), cells)
	}
}

// TestDispatchedPointRunsOnlyMissingMachines: a ladder point whose cells
// are partly in the store — here because a single-machine job already
// computed one machine's curve — asks its runner for the missing
// machines alone.
func TestDispatchedPointRunsOnlyMissingMachines(t *testing.T) {
	run := &localRunner{svc: experiments.NewService(2, 64, 0)}
	m, _ := newDispatchManager(t, t.TempDir(), run)
	first := Spec{Benchmark: "grid", Size: 16, Iters: 4, Machine: "cm5", Procs: []int{1, 2, 4}}
	id, err := m.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	calls, machines := run.calls.Load(), run.machines.Load()

	both := first
	both.Machine, both.Machines = "", []string{"cm5", "generic-dm"}
	if id, err = m.Submit(both); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	if got := run.calls.Load() - calls; got != int64(len(both.Procs)) {
		t.Errorf("second job made %d RunPoint calls, want one per ladder point (%d)", got, len(both.Procs))
	}
	if got := run.machines.Load() - machines; got != int64(len(both.Procs)) {
		t.Errorf("second job asked for %d cells, want only generic-dm's %d", got, len(both.Procs))
	}
	if st := m.Stats(); st.CellsLoaded != int64(len(both.Procs)) {
		t.Errorf("cells loaded = %d, want cm5's %d", st.CellsLoaded, len(both.Procs))
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

// TestDispatchedWorkloadJob: a composed-workload job hands its
// synthesized program to the Dispatch runner with every point, and the
// curves match the same job run through the local engine.
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
