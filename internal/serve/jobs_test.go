package serve

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/pcxx"
	"extrap/internal/store"
)

// del sends a DELETE and returns status and body.
func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitJob polls GET /v1/jobs/{id} until the job reaches a terminal
// status or the deadline passes, and returns the final response body.
func waitJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, body := get(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, status, body)
		}
		var resp JobStatusResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("GET job %s: bad JSON %q: %v", id, body, err)
		}
		switch resp.Status {
		case "done", "failed", "cancelled":
			return resp
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within deadline", id)
	return JobStatusResponse{}
}

// TestJobsRequireStore: without -store-dir the async jobs endpoints
// answer 503 store_disabled rather than pretending to be durable.
func TestJobsRequireStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type result struct {
		status int
		body   string
	}
	var checks []result
	s, b := post(t, ts.URL+"/v1/jobs", `{"benchmark":"grid","machine":"cm5"}`)
	checks = append(checks, result{s, b})
	s, b = get(t, ts.URL+"/v1/jobs")
	checks = append(checks, result{s, b})
	s, b = get(t, ts.URL+"/v1/jobs/j-00")
	checks = append(checks, result{s, b})
	s, b = del(t, ts.URL+"/v1/jobs/j-00")
	checks = append(checks, result{s, b})
	for i, c := range checks {
		if c.status != http.StatusServiceUnavailable || !strings.Contains(c.body, "store_disabled") {
			t.Errorf("endpoint %d: status %d body %s, want 503 store_disabled", i, c.status, c.body)
		}
	}
}

// TestJobLifecycleByteIdentical is the jobs acceptance test: a job
// submitted through POST /v1/jobs must complete with a result
// byte-identical to the synchronous POST /v1/sweep response for the
// same request.
func TestJobLifecycleByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 2})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2,4]}`
	status, syncBody := post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sync sweep: status %d: %s", status, syncBody)
	}

	status, subBody := post(t, ts.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatalf("submit body %q: %v", subBody, err)
	}
	if sub.ID == "" || sub.Status != "queued" {
		t.Fatalf("submit response %+v", sub)
	}

	final := waitJob(t, ts.URL, sub.ID)
	if final.Status != "done" || final.Error != "" {
		t.Fatalf("job finished %+v", final)
	}
	if final.TotalCells != 3 || final.DoneCells != 3 {
		t.Errorf("cells = %d/%d, want 3/3", final.DoneCells, final.TotalCells)
	}
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	async, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(async) != strings.TrimSpace(syncBody) {
		t.Errorf("async result differs from sync sweep:\n%s\nvs\n%s", async, strings.TrimSpace(syncBody))
	}

	// The list endpoint knows the job but strips results.
	status, listBody := get(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK || !strings.Contains(listBody, sub.ID) {
		t.Errorf("list: status %d body %s", status, listBody)
	}
	if strings.Contains(listBody, `"result"`) {
		t.Errorf("list leaks results: %s", listBody)
	}
}

// TestJobValidation: POST /v1/jobs applies the same request validation
// as the synchronous endpoint, and unknown job IDs 404.
func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	status, body := post(t, ts.URL+"/v1/jobs", `{"benchmark":"nope","machine":"cm5"}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown_benchmark") {
		t.Errorf("bad benchmark: status %d body %s", status, body)
	}
	status, body = post(t, ts.URL+"/v1/jobs", `{"benchmark":"grid","machine":"cm5","procs":[0]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "invalid_procs") {
		t.Errorf("bad procs: status %d body %s", status, body)
	}
	if status, body = get(t, ts.URL+"/v1/jobs/j-missing"); status != http.StatusNotFound || !strings.Contains(body, "unknown_job") {
		t.Errorf("get unknown: status %d body %s", status, body)
	}
	if status, body = del(t, ts.URL+"/v1/jobs/j-missing"); status != http.StatusNotFound || !strings.Contains(body, "unknown_job") {
		t.Errorf("cancel unknown: status %d body %s", status, body)
	}
}

// TestJobResultSurvivesRestart: a completed job must still be readable
// — with a byte-identical result — from a fresh server opened on the
// same store directory, without re-running the sweep.
func TestJobResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2]}`
	status, subBody := post(t, ts1.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, ts1.URL, sub.ID)
	if first.Status != "done" {
		t.Fatalf("job finished %+v", first)
	}
	wantResult, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	second := waitJob(t, ts2.URL, sub.ID)
	if second.Status != "done" {
		t.Fatalf("restarted job state %+v", second)
	}
	gotResult, err := json.Marshal(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotResult) != string(wantResult) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", gotResult, wantResult)
	}
}

// TestResumedJobRevalidatesCeilings: a resumed job's spec comes from a
// file on disk, so it passes the public resolver again before any cell
// runs. A job file rewritten (as rewriteJobRunning does) to an exact
// ladder of 17 entries — over the exact cap, under the fitted cap, and
// accepted by the job-file reader — fails on reopen with the resolver's
// invalid_procs message and computes no cell.
func TestResumedJobRevalidatesCeilings(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	id := submitJob(t, ts1.URL, `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2,4]}`)
	if first := waitJob(t, ts1.URL, id); first.Status != "done" {
		t.Fatalf("first run: %+v", first)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "jobs", id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var jf map[string]any
	if err := json.Unmarshal(raw, &jf); err != nil {
		t.Fatal(err)
	}
	ladder := make([]int, 17)
	for i := range ladder {
		ladder[i] = i + 1
	}
	jf["spec"].(map[string]any)["procs"] = ladder
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

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resumed := waitJob(t, ts2.URL, id)
	if want := "ladder has 17 entries, max 16"; resumed.Status != "failed" || resumed.Error != want {
		t.Errorf("resumed job: status %q error %q, want failed with %q", resumed.Status, resumed.Error, want)
	}
	if st := s2.jobs.Stats(); st.CellsComputed != 0 {
		t.Errorf("resumed job computed %d cells past the ladder ceiling", st.CellsComputed)
	}
}

// seedXTRP1Store writes opaque artifacts for grid (size 16, 4
// iterations) at each thread count into the store at dir, under the
// trace/v1 keys where a store written before the cache moved to XTRP2
// kept its XTRP1 traces.
func seedXTRP1Store(t *testing.T, dir string, threads ...int) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	sz := b.DefaultSize()
	sz.N, sz.Iters, sz.Verify = 16, 4, false
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	for _, n := range threads {
		if err := st.Put(experiments.MeasurementKey(b.Name(), sz, n, mopts).Canonical(), []byte("pre-XTRP2 artifact")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedFormatStoreAcrossRestart: a pre-migration store answers
// byte-identically after re-measuring. The server never reads the
// store's XTRP1 artifacts: a job over those measurements re-measures
// each one (measurement is deterministic) and stores it as XTRP2, so
// the store holds both formats. The job's answer equals a fresh
// server's, reads back byte-identically after a restart, and lists only
// XTRP2 artifacts; later work finds the re-measured traces.
func TestMixedFormatStoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	oldProcs := []int{1, 2}
	seedXTRP1Store(t, dir, oldProcs...)
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2]}`
	status, subBody := post(t, ts1.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, ts1.URL, sub.ID)
	if first.Status != "done" {
		t.Fatalf("job finished %+v", first)
	}
	if _, misses := s1.svc.CacheStats(); misses != int64(len(oldProcs)) {
		t.Errorf("server measured %d traces, want one per pre-migration artifact (%d)", misses, len(oldProcs))
	}
	wantResult, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh1 := newTestServer(t, Config{StoreDir: t.TempDir()})
	status, freshSweep := post(t, fresh1.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("fresh sweep: status %d: %s", status, freshSweep)
	}
	if string(wantResult) != strings.TrimSpace(freshSweep) {
		t.Errorf("pre-migration store answer differs from fresh server:\n%s\nvs\n%s", wantResult, strings.TrimSpace(freshSweep))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resumed := waitJob(t, ts2.URL, sub.ID)
	if resumed.Status != "done" {
		t.Fatalf("restarted job state %+v", resumed)
	}
	gotResult, err := json.Marshal(resumed.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotResult) != string(wantResult) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", gotResult, wantResult)
	}
	if len(resumed.Artifacts) != len(oldProcs) {
		t.Fatalf("artifacts = %+v, want one per ladder point", resumed.Artifacts)
	}
	for _, a := range resumed.Artifacts {
		if a.Format != "xtrp2" || a.EncodedBytes <= 0 {
			t.Errorf("artifact %+v, want the re-measured xtrp2 trace and a positive size", a)
		}
	}

	// New work on the restarted server: a different machine forces the
	// predictions to be recomputed from the stored traces, so procs 1–2
	// replay the re-measured XTRP2 artifacts and only proc 4 is measured.
	body2 := `{"benchmark":"grid","size":16,"iters":4,"machine":"generic-dm","procs":[1,2,4]}`
	status, subBody = post(t, ts2.URL+"/v1/jobs", body2)
	if status != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", status, subBody)
	}
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	second := waitJob(t, ts2.URL, sub.ID)
	if second.Status != "done" {
		t.Fatalf("second job finished %+v", second)
	}
	if _, misses := s2.svc.CacheStats(); misses != 1 {
		t.Errorf("restarted server measured %d traces, want 1 (procs 4)", misses)
	}
	formats := map[int]string{}
	for _, a := range second.Artifacts {
		formats[a.Procs] = a.Format
	}
	for _, n := range []int{1, 2, 4} {
		if formats[n] != "xtrp2" {
			t.Errorf("procs=%d stored as %q, want xtrp2 (all: %v)", n, formats[n], formats)
		}
	}

	// The answer is byte-identical to a fresh server computing the same
	// sweep from scratch.
	_, ts3 := newTestServer(t, Config{StoreDir: t.TempDir()})
	status, fresh := post(t, ts3.URL+"/v1/sweep", body2)
	if status != http.StatusOK {
		t.Fatalf("fresh sweep: status %d: %s", status, fresh)
	}
	secondResult, err := json.Marshal(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(secondResult) != strings.TrimSpace(fresh) {
		t.Errorf("restarted store answer differs from fresh server:\n%s\nvs\n%s",
			secondResult, strings.TrimSpace(fresh))
	}
}

// TestVarsStoreJobsCounters: with a store open, /debug/vars exposes the
// store and jobs counter submaps with sane values.
func TestVarsStoreJobsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2]}`
	status, subBody := post(t, ts.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ts.URL, sub.ID)

	status, varsBody := get(t, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("vars: status %d", status)
	}
	var vars struct {
		ExtrapServe struct {
			Store map[string]int64 `json:"store"`
			Jobs  map[string]int64 `json:"jobs"`
		} `json:"extrap_serve"`
	}
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("vars JSON: %v\n%s", err, varsBody)
	}
	st, jb := vars.ExtrapServe.Store, vars.ExtrapServe.Jobs
	if st == nil || jb == nil {
		t.Fatalf("missing store/jobs submaps:\n%s", varsBody)
	}
	if st["puts"] < 1 || st["objects"] < 1 || st["bytes"] < 1 || st["segments"] < 1 {
		t.Errorf("store counters %+v, want puts/objects/bytes/segments ≥ 1", st)
	}
	if _, ok := st["dead_bytes"]; !ok {
		t.Errorf("store counters %+v lack dead_bytes", st)
	}
	if _, ok := st["compacted_bytes"]; !ok {
		t.Errorf("store counters %+v lack compacted_bytes", st)
	}
	if jb["done"] != 1 || jb["submitted"] != 1 {
		t.Errorf("jobs counters %+v, want done=1 submitted=1", jb)
	}
	if jb["cells_loaded"]+jb["cells_computed"] != 2 {
		t.Errorf("jobs counters %+v, want loaded+computed = 2", jb)
	}
}

// TestCorruptArtifactRecomputedThroughServer: flip bytes in every
// stored artifact, restart the server on the directory, and re-run the
// same sweep. The corrupt artifacts must be detected and quarantined —
// never decoded into a response — and the recomputed answer must be
// byte-identical to the original.
func TestCorruptArtifactRecomputedThroughServer(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2]}`
	status, want := post(t, ts1.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("first sweep: status %d: %s", status, want)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last payload byte of every record in every segment. A
	// record is a 77-byte XART1 header, whose bytes 37..45 hold the
	// little-endian payload length, then the payload.
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, p := range segs {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+77 <= len(raw); records++ {
			off += 77 + int(binary.LittleEndian.Uint64(raw[off+37:]))
			raw[off-1] ^= 0xFF
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if records == 0 {
		t.Fatal("no artifacts persisted by first sweep")
	}

	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	status, got := post(t, ts2.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep after corruption: status %d: %s", status, got)
	}
	if got != want {
		t.Errorf("recomputed sweep differs from original:\n%s\nvs\n%s", got, want)
	}

	_, varsBody := get(t, ts2.URL+"/debug/vars")
	var vars struct {
		ExtrapServe struct {
			Store map[string]int64 `json:"store"`
		} `json:"extrap_serve"`
	}
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.ExtrapServe.Store["corruptions"] < 1 {
		t.Errorf("store counters %+v, want corruptions ≥ 1", vars.ExtrapServe.Store)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) == 0 {
		t.Error("no artifacts quarantined after corruption")
	}
}

// TestJobCancel: a running job can be cancelled over HTTP and settles
// in the cancelled state; cancelling a terminal job is a no-op.
func TestJobCancel(t *testing.T) {
	srv, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	// Freeze the job at its first cell so the cancel races nothing.
	frozen := make(chan struct{})
	release := make(chan struct{})
	// Cells run on pool goroutines, so the first-cell latch must be
	// race-free; later cells block in Do until the first is released.
	var once sync.Once
	srv.jobs.SetCellHook(func(string, int, int) {
		once.Do(func() {
			close(frozen)
			<-release
		})
	})

	body := `{"benchmark":"grid","size":16,"iters":4,"machine":"cm5","procs":[1,2,4]}`
	status, subBody := post(t, ts.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	<-frozen

	status, cancelBody := del(t, ts.URL+"/v1/jobs/"+sub.ID)
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", status, cancelBody)
	}
	close(release)

	final := waitJob(t, ts.URL, sub.ID)
	if final.Status != "cancelled" {
		t.Fatalf("after cancel: %+v", final)
	}
	// Cancelling again reports the terminal state without error.
	status, again := del(t, ts.URL+"/v1/jobs/"+sub.ID)
	if status != http.StatusOK || !strings.Contains(again, "cancelled") {
		t.Errorf("re-cancel: status %d body %s", status, again)
	}
}
