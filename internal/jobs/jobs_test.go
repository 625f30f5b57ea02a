package jobs

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/store"
	"extrap/internal/translate"
)

// testSpec is a sweep small enough to run in milliseconds but with
// enough cells to interrupt mid-grid.
func testSpec() Spec {
	return Spec{Benchmark: "grid", Size: 16, Iters: 4, Machine: "cm5", Procs: []int{1, 2, 4, 8}}
}

// newTestManager builds a manager (and its store) rooted at dir.
func newTestManager(t *testing.T, dir string) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := experiments.NewService(2, 64, 0)
	svc.SetBackend(st)
	m, err := Open(Config{
		Dir:     filepath.Join(dir, "jobs"),
		Service: svc,
		Store:   st,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, st
}

// waitStatus polls until the job reaches a terminal state or a status
// in want, failing on timeout.
func waitStatus(t *testing.T, m *Manager, id string, want Status) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if s.Status == want {
			return s
		}
		if s.Status.Terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, s.Status, s.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s, want %s", id, s.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// syncPoints computes the same sweep through the synchronous in-memory
// pipeline (core.Measure, translate.Translate and sim.Simulate per
// ladder point) — the byte-identity reference.
func syncPoints(t *testing.T, spec Spec) []metrics.Point {
	t.Helper()
	b, err := benchmarks.ByName(spec.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	env, err := machine.ByName(spec.Machine)
	if err != nil {
		t.Fatal(err)
	}
	sz := b.DefaultSize()
	sz.N, sz.Iters, sz.Verify = spec.Size, spec.Iters, false
	points := make([]metrics.Point, len(spec.Procs))
	for i, n := range spec.Procs {
		tr, err := core.Measure(b.Factory(sz)(n), core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := translate.Translate(tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Simulate(context.Background(), pt, env.Config)
		if err != nil {
			t.Fatal(err)
		}
		points[i] = metrics.Point{Procs: n, Time: res.TotalTime}
	}
	return points
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m, _ := newTestManager(t, t.TempDir())
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := waitStatus(t, m, id, StatusDone)
	if s.DoneCells != len(testSpec().Procs) {
		t.Errorf("DoneCells = %d, want %d", s.DoneCells, len(testSpec().Procs))
	}
	if want := syncPoints(t, testSpec()); !reflect.DeepEqual(s.Points, want) {
		t.Errorf("async job points differ from the synchronous sweep:\n got %+v\nwant %+v", s.Points, want)
	}
	st := m.Stats()
	if st.Done != 1 || st.CellsComputed != int64(len(testSpec().Procs)) {
		t.Errorf("stats = %+v, want 1 done job, %d computed cells", st, len(testSpec().Procs))
	}
}

func TestSubmitValidates(t *testing.T) {
	m, _ := newTestManager(t, t.TempDir())
	bad := []Spec{
		{},
		{Benchmark: "nosuch", Machine: "cm5"},
		{Benchmark: "grid", Machine: "nosuch"},
		{Benchmark: "grid", Machine: "cm5", Procs: []int{0}},
		{Benchmark: "grid", Machine: "cm5", Size: -1},
	}
	for _, sp := range bad {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", sp)
		}
	}
	// Defaults are resolved into the persisted spec.
	id, err := m.Submit(Spec{Benchmark: "grid", Machine: "cm5", Size: 16, Iters: 2, Procs: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.Get(id)
	if s.Spec.Size != 16 || s.Spec.Iters != 2 || len(s.Spec.Procs) != 2 {
		t.Errorf("persisted spec not resolved: %+v", s.Spec)
	}
}

// TestCrashResume is the durability contract end to end, in-process: a
// job frozen mid-grid by a crash-shaped Close resumes on the next Open
// against the same directories, restores already-computed cells from
// the artifact store instead of re-simulating them, and completes with
// points identical to the synchronous path.
func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := experiments.NewService(1, 64, 0)
	svc.SetBackend(st)

	// Freeze the job after its second cell completes: cells run
	// sequentially (one service worker), so when the hook blocks on
	// cell index 2, cells 0 and 1 have finished and persisted.
	blocked := make(chan struct{})
	release := make(chan struct{})
	m1, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc, Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1.cellHook = func(_ string, cell int) {
		if cell == 2 {
			close(blocked)
			<-release
		}
	}
	id, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	// Crash: cancel the base context first (so the frozen cell fails
	// instead of completing), then release the hook and drain.
	m1.stop()
	close(release)
	m1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The interrupted job must be persisted as running, not terminal.
	jf, err := readJobFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if jf.Status != StatusRunning {
		t.Fatalf("interrupted job persisted as %q, want running", jf.Status)
	}
	if jf.Done < 2 {
		t.Fatalf("only %d cells persisted before the crash, want ≥ 2", jf.Done)
	}

	// Restart: fresh store handle, fresh service (cold memory cache),
	// fresh manager over the same directories.
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
	if want := syncPoints(t, spec); !reflect.DeepEqual(s.Points, want) {
		t.Errorf("resumed job points differ from the synchronous sweep:\n got %+v\nwant %+v", s.Points, want)
	}
	st2Stats := m2.Stats()
	if st2Stats.CellsLoaded < 2 {
		t.Errorf("CellsLoaded = %d after resume, want ≥ 2 (completed cells must not be re-simulated)", st2Stats.CellsLoaded)
	}
	if st2Stats.CellsLoaded+st2Stats.CellsComputed != int64(len(spec.Procs)) {
		t.Errorf("loaded %d + computed %d ≠ %d cells", st2Stats.CellsLoaded, st2Stats.CellsComputed, len(spec.Procs))
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	m, _ := newTestManager(t, dir)

	// Freeze the first job so a second stays queued behind it.
	blocked := make(chan struct{})
	release := make(chan struct{})
	var hookOnce bool
	m.cellHook = func(_ string, cell int) {
		if cell == 0 && !hookOnce {
			hookOnce = true
			close(blocked)
			<-release
		}
	}
	running, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	queued, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}

	if s, ok := m.Cancel(queued); !ok || s.Status != StatusCancelled {
		t.Fatalf("cancelling a queued job: ok=%v status=%v", ok, s.Status)
	}
	if s, ok := m.Cancel(running); !ok || s.Status != StatusRunning {
		t.Fatalf("cancelling a running job: ok=%v status=%v", ok, s.Status)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := m.Get(running)
		if s.Status == StatusCancelled {
			break
		}
		if s.Status.Terminal() {
			t.Fatalf("cancelled job ended as %s", s.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job stuck at %s", s.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cancellation is persisted — a restart must not resurrect it.
	jf, err := readJobFile(filepath.Join(dir, "jobs", running+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if jf.Status != StatusCancelled {
		t.Errorf("cancelled job persisted as %q", jf.Status)
	}
	if _, ok := m.Cancel("j-nope"); ok {
		t.Error("cancelling an unknown job reported ok")
	}
}

// TestOpenIgnoresHostileJobFiles: torn, oversized, or mismatched job
// files cost that file, never the manager.
func TestOpenIgnoresHostileJobFiles(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	hostiles := map[string]string{
		"j-garbage.json":  "{not json",
		"j-mismatch.json": `{"id":"j-other","spec":{"benchmark":"grid","machine":"cm5","procs":[1]},"status":"queued"}`,
		"j-badstatus.json": `{"id":"j-badstatus","spec":{"benchmark":"grid","machine":"cm5","procs":[1]},` +
			`"status":"exploded"}`,
		"j-nocells.json": `{"id":"j-nocells","spec":{"benchmark":"grid","machine":"cm5","procs":[]},"status":"queued"}`,
	}
	for name, body := range hostiles {
		if err := os.WriteFile(filepath.Join(jobsDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := newTestManager(t, dir)
	if got := m.List(); len(got) != 0 {
		t.Errorf("hostile job files loaded: %+v", got)
	}
}

// TestDoneJobSurvivesRestart: a completed job's results reload from its
// job file and are not re-enqueued.
func TestDoneJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := experiments.NewService(2, 64, 0)
	svc.SetBackend(st)
	m1, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc, Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m1, id, StatusDone)
	m1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _ := newTestManager(t, dir)
	s, ok := m2.Get(id)
	if !ok {
		t.Fatal("done job lost across restart")
	}
	if s.Status != StatusDone || !reflect.DeepEqual(s.Points, done.Points) {
		t.Errorf("restarted done job = %+v, want %+v", s, done)
	}
	if st := m2.Stats(); st.Queued != 0 && st.Running != 0 {
		t.Errorf("done job re-entered the queue: %+v", st)
	}
}
