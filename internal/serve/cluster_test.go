package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extrap/internal/cluster"
	"extrap/internal/store"
)

// newWorkerServer starts a worker-role replica and returns its base URL.
func newWorkerServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Role = RoleWorker
	return newTestServer(t, cfg)
}

// newCoordinatorServer starts a coordinator over the given peer URLs
// with a fast poll so tests converge quickly.
func newCoordinatorServer(t *testing.T, cfg Config, peers ...string) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Role = RoleCoordinator
	cfg.Peers = peers
	if cfg.ClusterPoll == 0 {
		cfg.ClusterPoll = 2 * time.Millisecond
	}
	return newTestServer(t, cfg)
}

// sweepBodies is the matrix of sweep requests the distributed tests
// compare against solo: single machine, multi machine, multi point, and
// a kernel without an iteration count (embar's iters resolve to 0).
var sweepBodies = []string{
	`{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2,4,8]}`,
	`{"benchmark":"grid","size":16,"iters":4,"machines":["cm5","generic-dm","shared-mem"],"procs":[1,2,3,4,5,6,7,8]}`,
	`{"benchmark":"cyclic","size":12,"iters":3,"machines":["cm5","generic-dm"],"procs":[1,2,4]}`,
	`{"benchmark":"embar","size":16,"machines":["cm5","generic-dm"],"procs":[1,2,4,8]}`,
}

// TestDistributedSweepByteIdentical is the tentpole acceptance test: a
// coordinator sharding across two worker replicas must answer /v1/sweep
// byte-identically to a solo server, for single- and multi-machine
// requests, and must actually dispatch (not fall back to local).
func TestDistributedSweepByteIdentical(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	_, w1 := newWorkerServer(t, Config{Workers: 2})
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, w1.URL, w2.URL)

	for _, body := range sweepBodies {
		status, want := post(t, solo.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("solo sweep %s: status %d: %s", body, status, want)
		}
		status, got := post(t, coord.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("distributed sweep %s: status %d: %s", body, status, got)
		}
		if got != want {
			t.Errorf("distributed sweep differs from solo for %s:\n%s\nvs\n%s", body, got, want)
		}
	}

	st := coordSrv.coord.Stats()
	if st.Dispatched == 0 {
		t.Error("coordinator dispatched no shards — sweeps ran locally")
	}
	if st.Local != 0 {
		t.Errorf("coordinator fell back to local execution %d times with healthy peers", st.Local)
	}

	// The cluster submap is exported for operators.
	status, vars := get(t, coord.URL+"/debug/vars")
	if status != http.StatusOK || !strings.Contains(vars, `"shards_dispatched"`) {
		t.Errorf("/debug/vars: status %d, want cluster submap with shards_dispatched; body %.200s", status, vars)
	}
}

// flakyProxy fronts a worker and plays dead after accepting its first
// shard: the dispatch succeeds (202), then every subsequent request —
// including the polls for that accepted shard — answers 500. That is a
// worker killed mid-shard as the coordinator observes it.
type flakyProxy struct {
	backend  http.Handler
	accepted atomic.Int64
	dead     atomic.Bool
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "worker killed", http.StatusInternalServerError)
		return
	}
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/internal/shards") {
		f.accepted.Add(1)
		f.dead.Store(true) // die immediately after this accept
	}
	f.backend.ServeHTTP(w, r)
}

// TestDistributedSweepSurvivesWorkerDeath kills one worker mid-shard —
// it accepts a dispatch, then stops answering polls — and requires the
// coordinator to re-dispatch to the surviving peer and still produce
// byte-identical output.
func TestDistributedSweepSurvivesWorkerDeath(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	w1Srv, err := New(Config{Workers: 2, Role: RoleWorker, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w1Srv.Close() })
	proxy := &flakyProxy{backend: w1Srv.Handler()}
	w1 := httptest.NewServer(proxy)
	t.Cleanup(w1.Close)
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, w1.URL, w2.URL)

	body := sweepBodies[1] // 8 ladder points: both peers get shards
	status, want := post(t, solo.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("solo sweep: status %d: %s", status, want)
	}
	status, got := post(t, coord.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("distributed sweep with dying worker: status %d: %s", status, got)
	}
	if got != want {
		t.Errorf("post-failover sweep differs from solo:\n%s\nvs\n%s", got, want)
	}
	if proxy.accepted.Load() == 0 {
		t.Fatal("affinity routing never touched the flaky worker; the test exercised nothing")
	}
	if st := coordSrv.coord.Stats(); st.Retried == 0 {
		t.Errorf("no shard counted as retried after a worker died mid-shard: %+v", st)
	}

	// The same request must keep working — and keep matching solo — now
	// that one peer is marked down.
	if status, again := post(t, coord.URL+"/v1/sweep", body); status != http.StatusOK || again != want {
		t.Errorf("repeat sweep after worker death: status %d, identical=%v", status, again == want)
	}
}

// TestDistributedSweepLocalFallback: with every peer unreachable the
// coordinator executes shards locally and still matches solo output —
// a degraded cluster serves correct answers, not errors.
func TestDistributedSweepLocalFallback(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more
	coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, deadURL)

	body := sweepBodies[0]
	_, want := post(t, solo.URL+"/v1/sweep", body)
	status, got := post(t, coord.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep with all peers down: status %d: %s", status, got)
	}
	if got != want {
		t.Errorf("local-fallback sweep differs from solo:\n%s\nvs\n%s", got, want)
	}
	if st := coordSrv.coord.Stats(); st.Local == 0 {
		t.Errorf("expected local fallback executions, got %+v", st)
	}
}

// TestDistributedJobsByteIdentical: async jobs on a coordinator shard
// across workers, and their persisted results render byte-identically
// to a solo server's job for the same spec — exact and fitted, registry
// kernels and composed workloads.
func TestDistributedJobsByteIdentical(t *testing.T) {
	_, w1 := newWorkerServer(t, Config{Workers: 2})
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	coordSrv, coord := newCoordinatorServer(t,
		Config{Workers: 2, StoreDir: t.TempDir()}, w1.URL, w2.URL)
	_, solo := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})

	for _, spec := range []string{
		`{"benchmark":"grid","size":16,"iters":4,"machines":["cm5","generic-dm"],"procs":[1,2,4]}`,
		`{"benchmark":"embar","size":16,"machines":["cm5","generic-dm"],"procs":[1,2,4]}`,
		fittedSweepBody(`"machines":["cm5","generic-dm"]`, 24),
		workloadSweepBody,
	} {
		soloJob := waitJob(t, solo.URL, submitJob(t, solo.URL, spec))
		distJob := waitJob(t, coord.URL, submitJob(t, coord.URL, spec))
		if soloJob.Status != "done" {
			t.Fatalf("solo job %s: %+v", spec, soloJob)
		}
		if distJob.Status != "done" {
			t.Fatalf("distributed job %s: %+v", spec, distJob)
		}
		if got, want := resultJSON(t, distJob), resultJSON(t, soloJob); got != want {
			t.Errorf("distributed job result differs from solo for %s:\n%s\nvs\n%s", spec, got, want)
		}
	}
	if st := coordSrv.coord.Stats(); st.Dispatched == 0 || st.Local != 0 {
		t.Errorf("coordinator stats %+v, want every job point dispatched to a worker", st)
	}
}

// submitJob posts a job spec and returns the accepted ID.
func submitJob(t *testing.T, base, spec string) string {
	t.Helper()
	status, body := post(t, base+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit on %s: status %d: %s", base, status, body)
	}
	var resp JobSubmitResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.ID == "" {
		t.Fatalf("submit on %s: bad body %q (%v)", base, body, err)
	}
	return resp.ID
}

// resultJSON renders a done job's sweep result (single- or
// multi-machine) as JSON for byte comparison. Artifacts are excluded
// deliberately: WHERE measurement traces persisted differs between a
// solo server (locally) and a coordinator (on its workers) — the
// numbers must not.
func resultJSON(t *testing.T, jr JobStatusResponse) string {
	t.Helper()
	var v any = jr.Result
	if jr.MultiResult != nil {
		v = jr.MultiResult
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// rewriteJobRunning rewrites a persisted job file to the state a
// coordinator SIGKILLed mid-run leaves behind: status running, no
// completed points recorded in the file (cell results live only in the
// artifact store).
func rewriteJobRunning(t *testing.T, storeDir, id string) {
	t.Helper()
	path := filepath.Join(storeDir, "jobs", id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var jf map[string]any
	if err := json.Unmarshal(raw, &jf); err != nil {
		t.Fatal(err)
	}
	jf["status"] = "running"
	jf["done_cells"] = 0
	delete(jf, "points")
	out, err := json.Marshal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedJobResumesFromPersistedShards: a coordinator killed
// (crash-shaped Close) mid-job resumes on restart with completed cells
// loaded from its local store — even with every worker peer now dead,
// proving resumed cells are NOT re-dispatched.
func TestDistributedJobResumesFromPersistedShards(t *testing.T) {
	dir := t.TempDir()
	_, w1 := newWorkerServer(t, Config{Workers: 2})
	srv1, err := New(Config{Workers: 2, StoreDir: dir, Role: RoleCoordinator,
		Peers: []string{w1.URL}, ClusterPoll: 2 * time.Millisecond, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	spec := `{"benchmark":"grid","size":16,"iters":4,"machines":["cm5","generic-dm"],"procs":[1,2,4]}`
	id := submitJob(t, ts1.URL, spec)
	done := waitJob(t, ts1.URL, id)
	if done.Status != "done" {
		t.Fatalf("first run: %+v", done)
	}
	wantResult := resultJSON(t, done)
	ts1.Close()
	srv1.Close()

	// Rewrite the job file as incomplete, as a SIGKILL mid-run would have
	// left it: status running, no points. Cell records remain in the
	// store, so the restart must restore every cell from disk.
	rewriteJobRunning(t, dir, id)

	// Restart with the worker peer gone: only the store can finish this.
	deadPeer := w1.URL // keep the URL; the server behind it stays up but
	// the point is cells must load, not re-dispatch — assert via stats.
	srv2, err := New(Config{Workers: 2, StoreDir: dir, Role: RoleCoordinator,
		Peers: []string{deadPeer}, ClusterPoll: 2 * time.Millisecond, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	resumed := waitJob(t, ts2.URL, id)
	if resumed.Status != "done" {
		t.Fatalf("resumed job: %+v", resumed)
	}
	if got := resultJSON(t, resumed); got != wantResult {
		t.Errorf("resumed result differs:\n%s\nvs\n%s", got, wantResult)
	}
	if st := srv2.coord.Stats(); st.Dispatched != 0 || st.Local != 0 {
		t.Errorf("resume re-executed persisted cells: %+v", st)
	}
	if jt := srv2.jobs.Stats(); jt.CellsLoaded == 0 || jt.CellsComputed != 0 {
		t.Errorf("resume should load every cell from the store: %+v", jt)
	}
}

// TestSoloServerMountsNoClusterEndpoints: the internal shard endpoints
// exist only on workers; a solo (or coordinator) replica answers 404.
func TestSoloServerMountsNoClusterEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _ := post(t, ts.URL+"/v1/internal/shards",
		`{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"]}`)
	if status != http.StatusNotFound {
		t.Errorf("solo dispatch: status %d, want 404", status)
	}
	status, _ = get(t, ts.URL+"/v1/internal/shards/s-00")
	if status != http.StatusNotFound {
		t.Errorf("solo poll: status %d, want 404", status)
	}
	status, _ = get(t, ts.URL+"/v1/internal/artifacts/"+strings.Repeat("ab", 32))
	if status != http.StatusNotFound {
		t.Errorf("storeless artifact fetch: status %d, want 404", status)
	}
}

// TestClusterRoleValidation: misconfigured topologies fail at startup,
// not at first request.
func TestClusterRoleValidation(t *testing.T) {
	cases := []Config{
		{Role: "conductor"},
		{Role: RoleCoordinator}, // no peers
		{Role: RoleSolo, Peers: []string{"http://127.0.0.1:1"}},     // solo with peers
		{Role: RoleWorker, Peers: []string{"http://a", "http://b"}}, // too many
	}
	for i, cfg := range cases {
		cfg.Logger = discardLogger()
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("case %d (%+v): New accepted an invalid topology", i, cfg)
		}
	}
}

// TestNewReleasesWorkerOnError: a worker's New that fails after
// starting the shard lease collector — here because StoreDir/jobs is a
// regular file, so the jobs manager cannot open — stops the collector
// and releases the store's directory lock before returning the error.
func TestNewReleasesWorkerOnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Config{Role: RoleWorker, StoreDir: dir, Logger: discardLogger()}); err == nil {
		s.Close()
		t.Fatal("New opened a jobs manager over a regular file")
	}
	// A stopped collector may still be unwinding when New returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Worker).gcLoop") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("New's error path left the worker's lease collector running:\n%s", stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatalf("New's error path kept the store open: %v", err)
	}
	st.Close()
}

// TestDistributedConcurrentSweeps: concurrent identical and distinct
// sweeps through the coordinator all match their solo bytes — affinity
// routing plus worker single-flight must not corrupt anything under
// load (this is the -race half of the acceptance test).
func TestDistributedConcurrentSweeps(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	_, w1 := newWorkerServer(t, Config{Workers: 2})
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	_, coord := newCoordinatorServer(t, Config{Workers: 2, MaxInFlight: 64}, w1.URL, w2.URL)

	want := make(map[string]string, len(sweepBodies))
	for _, body := range sweepBodies {
		_, want[body] = post(t, solo.URL+"/v1/sweep", body)
	}
	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		body := sweepBodies[i%len(sweepBodies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(coord.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, got)
				return
			}
			if string(got) != want[body] {
				errs <- fmt.Errorf("concurrent distributed sweep differs for %s", body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestDistributedFittedSweepByteIdentical: fitted mode on a coordinator
// shards only the sparse anchor simulations across workers, and the
// rendered body — fit summary, provenance, intervals — must match the
// solo server's bytes exactly.
func TestDistributedFittedSweepByteIdentical(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	_, w1 := newWorkerServer(t, Config{Workers: 2})
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, w1.URL, w2.URL)

	for _, body := range []string{
		fittedSweepBody(`"machine":"cm5"`, 40),
		fittedSweepBody(`"machines":["cm5","generic-dm"]`, 40),
		fmt.Sprintf(`{"benchmark":"embar","size":16,"machines":["cm5","generic-dm"],"procs":%s,"mode":"fitted"}`, denseLadderJSON(24)),
	} {
		status, want := post(t, solo.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("solo fitted sweep: status %d: %s", status, want)
		}
		status, got := post(t, coord.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("distributed fitted sweep: status %d: %s", status, got)
		}
		if got != want {
			t.Errorf("distributed fitted sweep differs from solo for %s:\n%s\nvs\n%s", body, got, want)
		}
	}
	st := coordSrv.coord.Stats()
	if st.Dispatched == 0 {
		t.Error("fitted sweeps dispatched no shards — anchors ran locally")
	}
	if st.Local != 0 {
		t.Errorf("coordinator fell back to local execution %d times with healthy peers", st.Local)
	}
}

// pastBoundTrace is a valid 48-byte XTRP2 stream whose one repeat op
// declares 2^39 events, past trace.MaxTraceEvents.
const pastBoundTrace = "XTRP2\x04" + "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x00\x00\x00\x00\x80\x00\x00\x00" + "\x01\x00\x00\x00" +
	"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x80\x80\x80\x10"

// TestWorkerTreatsHostilePeerTraceAsMiss: a worker whose peer answers
// every artifact fetch with a trace past the event bound treats it as a
// miss and measures, so a coordinator's sweep through it matches a solo
// server's byte for byte — with the peer alone behind the worker's
// cache, and with a local store in front of it, which the refused bytes
// are written through to and then overwritten in.
func TestWorkerTreatsHostilePeerTraceAsMiss(t *testing.T) {
	var fetches atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		io.WriteString(w, pastBoundTrace)
	}))
	defer peer.Close()
	_, solo := newTestServer(t, Config{Workers: 2})
	body := sweepBodies[0]
	status, want := post(t, solo.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("solo sweep: status %d: %s", status, want)
	}
	for _, storeDir := range []string{"", t.TempDir()} {
		before := fetches.Load()
		_, w := newWorkerServer(t, Config{Workers: 2, Peers: []string{peer.URL}, StoreDir: storeDir})
		coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, w.URL)
		status, got := post(t, coord.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("store %q: sweep through the worker: status %d: %s", storeDir, status, got)
		}
		if got != want {
			t.Errorf("store %q: sweep through the worker differs from solo:\n%s\nvs\n%s", storeDir, got, want)
		}
		if st := coordSrv.coord.Stats(); st.Dispatched == 0 || st.Local != 0 {
			t.Errorf("store %q: coordinator stats %+v, want every shard dispatched", storeDir, st)
		}
		if fetches.Load() == before {
			t.Errorf("store %q: the worker never fetched from its peer", storeDir)
		}
	}
}

// TestCoordinatorKeepsLadderInFlight: a coordinator whose Workers is
// unset dispatches every point of a default exact sweep at once, as a
// fan-out bounded by GOMAXPROCS would not on a small host. Its one peer
// reports each shard running until it has accepted all six, then done,
// so the sweep completes only if all six were in flight together.
func TestCoordinatorKeepsLadderInFlight(t *testing.T) {
	const points = 6 // core.DefaultProcCounts
	var mu sync.Mutex
	specs := map[string]cluster.ShardSpec{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/shards", func(w http.ResponseWriter, r *http.Request) {
		var spec cluster.ShardSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		id := fmt.Sprint("s-", len(specs))
		specs[id] = spec
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(cluster.ShardAccepted{ID: id, Status: cluster.ShardRunning, LeaseMs: cluster.DefaultLeaseMs})
	})
	mux.HandleFunc("GET /v1/internal/shards/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		spec, ok := specs[r.PathValue("id")]
		seen := len(specs)
		mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		st := cluster.ShardStatus{ID: r.PathValue("id"), Status: cluster.ShardRunning}
		if seen >= points {
			st.Status = cluster.ShardDone
			for _, m := range spec.Machines {
				st.Cells = append(st.Cells, cluster.CellResult{Machine: m, Procs: spec.Threads, TotalNs: int64(spec.Threads) * 1000})
			}
		}
		json.NewEncoder(w).Encode(st)
	})
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)

	coordSrv, coord := newCoordinatorServer(t, Config{RequestTimeout: 5 * time.Second}, peer.URL)
	status, body := post(t, coord.URL+"/v1/sweep", `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5"}`)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	if st := coordSrv.coord.Stats(); st.Dispatched != points || st.Local != 0 {
		t.Errorf("coordinator stats %+v, want %d dispatched and none local", st, points)
	}
}
