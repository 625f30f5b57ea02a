package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// workloadSpec is the nested composed spec the acceptance tests sweep:
// a pipeline nesting a task farm, a 2-D stencil, and a seq combinator
// of bsp + tree reduction — every pattern family in one tree.
const workloadSpec = `{"size":8,"iters":2,"root":{"kind":"pipeline","message_bytes":32,"stages":[
	{"kind":"task_farm","tasks":24,"grain":4,"imbalance":0.5},
	{"kind":"stencil","width":12,"height":8,"sweeps":2,"grain":2},
	{"kind":"seq","children":[{"kind":"bsp","supersteps":2,"message_bytes":64},{"kind":"reduction","op":"tree"}]}]}}`

// workloadSweepBody embeds the spec in a multi-machine sweep request.
var workloadSweepBody = `{"workload":` + workloadSpec +
	`,"machines":["cm5","generic-dm","shared-mem"],"procs":[1,2,4,8]}`

// TestWorkloadSweepByteIdenticalMatrix is the tentpole acceptance test
// for composed workloads: the same nested spec served via /v1/sweep
// must answer byte-identically across solo vs coordinator+2-workers and
// across worker counts.
func TestWorkloadSweepByteIdenticalMatrix(t *testing.T) {
	_, solo := newTestServer(t, Config{Workers: 2})
	status, want := post(t, solo.URL+"/v1/sweep", workloadSweepBody)
	if status != http.StatusOK {
		t.Fatalf("solo workload sweep: status %d: %s", status, want)
	}
	if !strings.Contains(want, `"benchmark":"wl:`) {
		t.Fatalf("sweep response does not carry the derived workload name: %.200s", want)
	}

	_, w1 := newWorkerServer(t, Config{Workers: 2})
	_, w2 := newWorkerServer(t, Config{Workers: 2})
	coordSrv, coord := newCoordinatorServer(t, Config{Workers: 2}, w1.URL, w2.URL)
	_, workers4 := newTestServer(t, Config{Workers: 4})
	variants := map[string]*httptest.Server{
		"coordinator+2workers": coord,
		"workers4":             workers4,
	}
	for name, ts := range variants {
		status, got := post(t, ts.URL+"/v1/sweep", workloadSweepBody)
		if status != http.StatusOK {
			t.Fatalf("%s workload sweep: status %d: %s", name, status, got)
		}
		if got != want {
			t.Errorf("%s workload sweep differs from solo:\n%s\nvs\n%s", name, got, want)
		}
	}
	if st := coordSrv.coord.Stats(); st.Dispatched == 0 || st.Local != 0 {
		t.Errorf("coordinator did not shard the composed workload: %+v", st)
	}
}

// TestWorkloadJobRestartResume: an async job for a composed workload
// survives a crash-shaped restart — the restarted server restores every
// persisted cell from the store and renders the same result bytes, and
// the job echoes the normalized spec alongside the derived name.
func TestWorkloadJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Workers: 2, StoreDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	id := submitJob(t, ts1.URL, workloadSweepBody)
	done := waitJob(t, ts1.URL, id)
	if done.Status != "done" {
		t.Fatalf("workload job: %+v", done)
	}
	if !strings.HasPrefix(done.Benchmark, "wl:") {
		t.Errorf("job benchmark = %q, want derived wl:<hash> name", done.Benchmark)
	}
	if len(done.Workload) == 0 || !strings.Contains(string(done.Workload), `"pipeline"`) {
		t.Errorf("job does not echo the workload spec: %s", done.Workload)
	}
	want := resultJSON(t, done)

	// The done job's result must render byte-identically to the
	// synchronous sweep for the same request.
	status, sweep := post(t, ts1.URL+"/v1/sweep", workloadSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sync sweep: status %d: %s", status, sweep)
	}
	if strings.TrimSpace(sweep) != want {
		t.Errorf("done workload job differs from synchronous sweep:\n%s\nvs\n%s", want, sweep)
	}
	ts1.Close()
	srv1.Close()

	rewriteJobRunning(t, dir, id)

	srv2, err := New(Config{Workers: 2, StoreDir: dir, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	resumed := waitJob(t, ts2.URL, id)
	if resumed.Status != "done" {
		t.Fatalf("resumed workload job: %+v", resumed)
	}
	if got := resultJSON(t, resumed); got != want {
		t.Errorf("resumed workload job differs from first run:\n%s\nvs\n%s", got, want)
	}
	if jt := srv2.jobs.Stats(); jt.CellsLoaded == 0 || jt.CellsComputed != 0 {
		t.Errorf("resume should restore workload cells from the store: %+v", jt)
	}
}

// TestWorkloadExtrapolate: /v1/extrapolate accepts a workload object in
// place of a benchmark name and the composed program predicts like any
// registered benchmark — including through a preset referenced by name.
func TestWorkloadExtrapolate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":` + workloadSpec + `,"threads":4,"machine":"cm5"}`
	status, resp := post(t, ts.URL+"/v1/extrapolate", body)
	if status != http.StatusOK {
		t.Fatalf("workload extrapolate: status %d: %s", status, resp)
	}
	if !strings.Contains(resp, `"benchmark":"wl:`) {
		t.Errorf("response does not name the derived workload: %.200s", resp)
	}

	// Registered presets resolve through the plain benchmark field.
	for _, preset := range []string{"pipeline8", "farm-stencil", "bsp-reduce"} {
		status, resp := post(t, ts.URL+"/v1/extrapolate",
			`{"benchmark":"`+preset+`","threads":4,"machine":"cm5"}`)
		if status != http.StatusOK {
			t.Errorf("preset %s: status %d: %s", preset, status, resp)
		}
	}
}

// TestWorkloadValidation: the workload field is mutually exclusive with
// benchmark, malformed specs are rejected with invalid_workload, and
// omitting both keeps the missing_benchmark error.
func TestWorkloadValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"both set", `{"benchmark":"grid","workload":` + workloadSpec + `,"threads":2,"machine":"cm5"}`, "invalid_workload"},
		{"unknown kind", `{"workload":{"root":{"kind":"warp"}},"threads":2,"machine":"cm5"}`, "invalid_workload"},
		{"neither", `{"threads":2,"machine":"cm5"}`, "missing_benchmark"},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v1/extrapolate", tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, tc.code) {
			t.Errorf("%s: status %d body %.200s, want 400 %s", tc.name, status, body, tc.code)
		}
	}
}

// TestPatternsEndpoint: GET /v1/patterns publishes the DSL vocabulary,
// the registered presets, and the validation ceilings.
func TestPatternsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/patterns")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/patterns: status %d: %s", status, body)
	}
	for _, want := range []string{
		`"pipeline"`, `"task_farm"`, `"stencil"`, `"reduction"`, `"bsp"`,
		"pipeline8", "farm-stencil", "bsp-reduce",
		`"max_depth"`, `"max_nodes"`, `"max_events"`, `"wl/v1|`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/patterns missing %s: %.300s", want, body)
		}
	}
}

// TestComposeVarsExported: serving a composed workload surfaces the
// compose counters in the /debug/vars submap.
func TestComposeVarsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":` + workloadSpec + `,"threads":2,"machine":"cm5"}`
	if status, resp := post(t, ts.URL+"/v1/extrapolate", body); status != http.StatusOK {
		t.Fatalf("workload extrapolate: status %d: %s", status, resp)
	}
	status, vars := get(t, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", status)
	}
	if !strings.Contains(vars, `"compose"`) || !strings.Contains(vars, `"specs_parsed"`) {
		t.Errorf("/debug/vars missing compose submap: %.300s", vars)
	}
}
