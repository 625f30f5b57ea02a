package jobs

import (
	"path/filepath"
	"reflect"
	"testing"

	"extrap/internal/experiments"
	"extrap/internal/store"
)

// multiSpec is a multi-machine sweep: every machine's cell at one
// ladder point shares a measurement.
func multiSpec() Spec {
	return Spec{
		Benchmark: "grid", Size: 16, Iters: 4,
		Machines: []string{"cm5", "shared-mem", "generic-dm"},
		Procs:    []int{1, 2, 4},
	}
}

// syncCurves computes each machine's curve through the synchronous
// per-cell path — the byte-identity reference for multi-machine jobs.
func syncCurves(t *testing.T, spec Spec) [][]string {
	t.Helper()
	curves := make([][]string, len(spec.Machines))
	for i, name := range spec.Machines {
		single := spec
		single.Machine, single.Machines = name, nil
		pts := syncPoints(t, single)
		curves[i] = make([]string, len(pts))
		for k, p := range pts {
			curves[i][k] = p.Time.String()
		}
	}
	return curves
}

func snapshotCurves(s Snapshot) [][]string {
	out := make([][]string, len(s.Curves))
	for i, curve := range s.Curves {
		out[i] = make([]string, len(curve))
		for k, p := range curve {
			out[i][k] = p.Time.String()
		}
	}
	return out
}

// TestMultiMachineJobBatchedMatchesPerMachine: a multi-machine job —
// several machines run as one grid over shared measurements — must
// produce, per machine, exactly the curve a synchronous single-machine
// sweep produces.
func TestMultiMachineJobBatchedMatchesPerMachine(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := experiments.NewService(2, 64, 0)
	svc.SetBackend(st)
	m, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc, Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	spec := multiSpec()
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, m, id, StatusDone)
	cells := len(spec.Machines) * len(spec.Procs)
	if s.TotalCells != cells || s.DoneCells != cells {
		t.Errorf("cells = %d/%d, want %d/%d", s.DoneCells, s.TotalCells, cells, cells)
	}
	if len(s.Curves) != len(spec.Machines) {
		t.Fatalf("%d curves for %d machines", len(s.Curves), len(spec.Machines))
	}
	if got, want := snapshotCurves(s), syncCurves(t, spec); !reflect.DeepEqual(got, want) {
		t.Errorf("multi-machine job curves differ from per-machine sweeps:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(s.Points, s.Curves[0]) {
		t.Errorf("Points %v does not alias first curve %v", s.Points, s.Curves[0])
	}
}

// TestMultiMachineCrashResumeBatched: the durability contract for a
// multi-machine job — frozen mid-grid by a crash-shaped Close, it
// resumes on the next Open, restores every already-persisted cell from
// the artifact store, and completes with per-machine curves identical
// to the synchronous single-machine sweeps.
func TestMultiMachineCrashResumeBatched(t *testing.T) {
	dir := t.TempDir()
	spec := multiSpec()

	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := experiments.NewService(1, 64, 0)
	svc.SetBackend(st)
	m1, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc, Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ladder points run sequentially (one service worker), each looking
	// up its machines' cells before running the missing ones in one
	// RunPoint. Freezing at machine 0 of the last ladder point (4
	// threads) leaves the points at 1 and 2 threads — six of nine cells —
	// computed and persisted.
	blocked := make(chan struct{})
	release := make(chan struct{})
	m1.cellHook = func(_ string, threads, machine int) {
		if threads == 4 && machine == 0 {
			close(blocked)
			<-release
		}
	}
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	m1.stop()
	close(release)
	m1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	jf, err := readJobFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if jf.Status != StatusRunning {
		t.Fatalf("interrupted job persisted as %q, want running", jf.Status)
	}
	if jf.Done < 6 {
		t.Fatalf("only %d cells persisted before the crash, want ≥ 6", jf.Done)
	}

	st2, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := experiments.NewService(1, 64, 0)
	svc2.SetBackend(st2)
	m2, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc2, Store: st2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	s := waitStatus(t, m2, id, StatusDone)
	if got, want := snapshotCurves(s), syncCurves(t, spec); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed multi-machine job curves differ from per-machine sweeps:\n got %v\nwant %v", got, want)
	}
	stats := m2.Stats()
	if stats.CellsLoaded < 6 {
		t.Errorf("CellsLoaded = %d after resume, want ≥ 6 (persisted cells must not be re-simulated)", stats.CellsLoaded)
	}
	cells := int64(len(spec.Machines) * len(spec.Procs))
	if stats.CellsLoaded+stats.CellsComputed != cells {
		t.Errorf("loaded %d + computed %d ≠ %d cells", stats.CellsLoaded, stats.CellsComputed, cells)
	}
}

// TestSubmitRejectsMachineAndMachines: the two machine fields are
// mutually exclusive, and every listed machine must resolve.
func TestSubmitRejectsMachineAndMachines(t *testing.T) {
	m, _ := newTestManager(t, t.TempDir())
	bad := []Spec{
		{Benchmark: "grid", Machine: "cm5", Machines: []string{"ideal"}, Procs: []int{1}},
		{Benchmark: "grid", Machines: []string{"cm5", "nosuch"}, Procs: []int{1}},
		{Benchmark: "grid", Machines: []string{""}, Procs: []int{1}},
	}
	for _, sp := range bad {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", sp)
		}
	}
}
