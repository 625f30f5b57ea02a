package serve

// Tests for the fitted sweep mode: provenance and interval fields on
// every point, the ≤ 25% anchor contract on dense ladders, byte
// identity across worker counts, and the guarantee that
// the default exact mode's bytes are untouched by the mode field's
// existence.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"extrap/internal/model"
	"extrap/internal/request"
	"extrap/internal/vtime"
)

// denseLadderJSON renders [1, 2, …, n] as a JSON array.
func denseLadderJSON(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(i + 1)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func fittedSweepBody(machineField string, n int) string {
	return fmt.Sprintf(`{"benchmark":"grid","size":64,"iters":4,%s,"procs":%s,"mode":"fitted"}`,
		machineField, denseLadderJSON(n))
}

// TestFittedSweepSparseAnchors is the fitted mode's cost-and-provenance
// acceptance test: on a 64-point ladder at most 25%% of the cells may be
// truly simulated, every point must declare its provenance and carry an
// interval, and the fit summary must expose the basis and diagnostics.
func TestFittedSweepSparseAnchors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	const ladderLen = 64
	status, body := post(t, ts.URL+"/v1/sweep", fittedSweepBody(`"machine":"cm5"`, ladderLen))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Mode   string `json:"mode"`
		Points []struct {
			Procs      int      `json:"procs"`
			Predicted  float64  `json:"predicted_ms"`
			Speedup    float64  `json:"speedup"`
			Efficiency float64  `json:"efficiency"`
			Source     string   `json:"source"`
			IntervalMs *float64 `json:"interval_ms"`
		} `json:"points"`
		Fit *FitSummary `json:"fit"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "fitted" {
		t.Errorf("mode = %q, want fitted", resp.Mode)
	}
	if resp.Fit == nil {
		t.Fatal("fitted response has no fit summary")
	}
	if len(resp.Points) != ladderLen {
		t.Fatalf("got %d points, want %d", len(resp.Points), ladderLen)
	}
	simulated := 0
	for _, p := range resp.Points {
		switch p.Source {
		case "simulated":
			simulated++
			if p.IntervalMs == nil || *p.IntervalMs != 0 {
				t.Errorf("p=%d: simulated point interval = %v, want 0", p.Procs, p.IntervalMs)
			}
		case "fitted":
			if p.IntervalMs == nil {
				t.Errorf("p=%d: fitted point missing interval_ms", p.Procs)
			}
		default:
			t.Errorf("p=%d: source = %q, want simulated or fitted", p.Procs, p.Source)
		}
	}
	if max := ladderLen / 4; simulated > max {
		t.Errorf("simulated %d of %d cells, contract allows at most %d", simulated, ladderLen, max)
	}
	if simulated != resp.Fit.Anchors {
		t.Errorf("fit reports %d anchors but %d points are simulated", resp.Fit.Anchors, simulated)
	}
	if got, want := len(resp.Fit.Coefficients), len(resp.Fit.Basis); got != want {
		t.Errorf("fit has %d coefficients for %d basis terms", got, want)
	}
	// The baseline (lowest procs) is always an anchor, so speedup 1 /
	// efficiency 1 there are exact, not fitted.
	if p := resp.Points[0]; p.Procs != 1 || p.Source != "simulated" || p.Speedup != 1 || p.Efficiency != 1 {
		t.Errorf("baseline point = %+v, want simulated p=1 with speedup 1", p)
	}
}

// TestFittedSweepByteIdenticalAcrossWorkersAndBatch: the fit is pure
// deterministic arithmetic over exact anchors, so fitted bodies must
// not depend on worker count — including the multi-machine shape,
// whose anchors simulate every machine at each anchor point.
func TestFittedSweepByteIdenticalAcrossWorkersAndBatch(t *testing.T) {
	configs := []Config{
		{Workers: 1},
		{Workers: 4},
	}
	for _, mf := range []string{`"machine":"cm5"`, `"machines":["cm5","generic-dm","shared-mem"]`} {
		body := fittedSweepBody(mf, 48)
		var want string
		for i, cfg := range configs {
			_, ts := newTestServer(t, cfg)
			status, got := post(t, ts.URL+"/v1/sweep", body)
			if status != http.StatusOK {
				t.Fatalf("config %d (%s): status %d: %s", i, mf, status, got)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("config %d (%s): fitted body differs from workers=1 body", i, mf)
			}
		}
	}
}

// TestExactSweepBytesUnchangedByModeField: "mode":"exact" must render
// byte-identically to omitting the field, and exact bodies must not
// leak any fitted-mode fields.
func TestExactSweepBytesUnchangedByModeField(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	base := `{"benchmark":"grid","size":64,"iters":4,"machine":"cm5","procs":[1,2,4,8]}`
	explicit := `{"benchmark":"grid","size":64,"iters":4,"machine":"cm5","procs":[1,2,4,8],"mode":"exact"}`
	status, wantBody := post(t, ts.URL+"/v1/sweep", base)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, wantBody)
	}
	status, gotBody := post(t, ts.URL+"/v1/sweep", explicit)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, gotBody)
	}
	if gotBody != wantBody {
		t.Errorf("mode:exact body differs from default:\n%s\nvs\n%s", gotBody, wantBody)
	}
	for _, field := range []string{`"mode"`, `"source"`, `"interval_ms"`, `"fit"`} {
		if strings.Contains(wantBody, field) {
			t.Errorf("exact body leaks fitted field %s: %s", field, wantBody)
		}
	}
}

// TestFittedModeValidation: unknown modes are rejected; the dense
// ladder ceiling applies only to fitted mode.
func TestFittedModeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := post(t, ts.URL+"/v1/sweep",
		`{"benchmark":"grid","machine":"cm5","mode":"approximate"}`)
	if status != http.StatusBadRequest || !strings.Contains(body, `"code":"invalid_mode"`) {
		t.Errorf("unknown mode: status %d body %s, want 400 invalid_mode", status, body)
	}

	// 17 entries: over the exact cap, fine for fitted.
	ladder := denseLadderJSON(17)
	status, body = post(t, ts.URL+"/v1/sweep",
		fmt.Sprintf(`{"benchmark":"grid","size":64,"iters":4,"machine":"cm5","procs":%s}`, ladder))
	if status != http.StatusBadRequest {
		t.Errorf("exact 17-entry ladder: status %d body %s, want 400", status, body)
	}
	status, body = post(t, ts.URL+"/v1/sweep",
		fmt.Sprintf(`{"benchmark":"grid","size":64,"iters":4,"machine":"cm5","procs":%s,"mode":"fitted"}`, ladder))
	if status != http.StatusOK {
		t.Errorf("fitted 17-entry ladder: status %d body %s, want 200", status, body)
	}

	// Past even the fitted cap.
	status, body = post(t, ts.URL+"/v1/sweep",
		fmt.Sprintf(`{"benchmark":"grid","machine":"cm5","procs":%s,"mode":"fitted"}`, denseLadderJSON(request.MaxFittedLadderLen+1)))
	if status != http.StatusBadRequest || !strings.Contains(body, `"code":"invalid_procs"`) {
		t.Errorf("oversized fitted ladder: status %d body %s, want 400 invalid_procs", status, body)
	}
}

// TestFittedRendererGuardsNonPositivePredictions: a fit that dips to a
// non-positive value must render speedup and efficiency as 0 — never
// Inf or NaN, which would make the response unencodable JSON.
func TestFittedRendererGuardsNonPositivePredictions(t *testing.T) {
	res := &model.Result{
		Anchors: []model.Anchor{{Procs: 1, Times: []vtime.Time{1000}}},
		Curves: []model.CurveFit{{
			Points: []model.Point{
				{Procs: 1, Simulated: true, Value: 1000, Exact: 1000},
				{Procs: 2, Value: -50, Interval: 10},
				{Procs: 4, Value: 0, Interval: 10},
			},
			Coeffs: []float64{1000},
		}},
	}
	resp := buildFittedSweepResponse("grid", "cm5", 16, 4, res, 0)
	if resp.Points[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v, want 1", resp.Points[0].Speedup)
	}
	for _, i := range []int{1, 2} {
		if s := resp.Points[i].Speedup; s != 0 {
			t.Errorf("point %d: speedup = %v for non-positive prediction, want 0", i, s)
		}
		if e := resp.Points[i].Efficiency; e != 0 {
			t.Errorf("point %d: efficiency = %v for non-positive prediction, want 0", i, e)
		}
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("fitted response with non-positive predictions does not encode: %v", err)
	}
	if strings.Contains(string(out), "Inf") || strings.Contains(string(out), "NaN") {
		t.Errorf("encoded response leaks non-finite values: %s", out)
	}
}

// TestFittedDebugVars: a fitted sweep must move the fitted counters at
// /debug/vars — runs, anchors simulated, cells fitted.
func TestFittedDebugVars(t *testing.T) {
	before := model.ReadCounters()
	_, ts := newTestServer(t, Config{Workers: 4})
	status, body := post(t, ts.URL+"/v1/sweep", fittedSweepBody(`"machine":"cm5"`, 32))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	status, vars := get(t, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars status %d", status)
	}
	var doc struct {
		Serve struct {
			Fitted struct {
				Runs             int64 `json:"runs"`
				FitIterations    int64 `json:"fit_iterations"`
				AnchorsSimulated int64 `json:"anchors_simulated"`
				CellsFitted      int64 `json:"cells_fitted"`
			} `json:"fitted"`
		} `json:"extrap_serve"`
	}
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	f := doc.Serve.Fitted
	if f.Runs <= before.Runs || f.AnchorsSimulated <= before.AnchorsSimulated ||
		f.CellsFitted <= before.CellsFitted || f.FitIterations <= before.FitIterations {
		t.Errorf("fitted counters did not all advance: before %+v after %+v", before, f)
	}
}

// TestFittedJobLifecycle: an async fitted job persists only its anchor
// cells, reports work saved through DoneCells < TotalCells, and renders
// a result byte-identical to the synchronous fitted sweep.
func TestFittedJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 4})

	const ladderLen = 40
	body := fmt.Sprintf(`{"benchmark":"grid","size":64,"iters":4,"machines":["cm5","generic-dm"],"procs":%s,"mode":"fitted"}`,
		denseLadderJSON(ladderLen))
	status, syncBody := post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sync fitted sweep: status %d: %s", status, syncBody)
	}

	status, subBody := post(t, ts.URL+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ts.URL, sub.ID)
	if final.Status != "done" || final.Error != "" {
		t.Fatalf("job finished %+v", final)
	}
	if final.Mode != "fitted" {
		t.Errorf("job mode = %q, want fitted", final.Mode)
	}
	if final.TotalCells != 2*ladderLen {
		t.Errorf("total cells = %d, want %d", final.TotalCells, 2*ladderLen)
	}
	// Work saved: only anchors simulate, so the done count must sit well
	// under the grid — and within the 25% anchor contract.
	if final.DoneCells == 0 || final.DoneCells > final.TotalCells/4 {
		t.Errorf("done cells = %d of %d, want nonzero and at most a quarter", final.DoneCells, final.TotalCells)
	}
	if final.MultiResult == nil {
		t.Fatal("done fitted job has no multi result")
	}
	async, err := json.Marshal(final.MultiResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(async) != strings.TrimSpace(syncBody) {
		t.Errorf("async fitted result differs from sync sweep:\n%s\nvs\n%s", async, strings.TrimSpace(syncBody))
	}
}

// TestFittedJobSurvivesRestart: a done fitted job re-renders its dense
// curve from persisted anchors (model replay) byte-identically on a
// fresh server — and a job rewound to the crash shape (status running,
// no points) re-runs its refinement with anchors loaded from the store
// rather than re-simulated.
func TestFittedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 2})

	body := fmt.Sprintf(`{"benchmark":"grid","size":64,"iters":4,"machine":"cm5","procs":%s,"mode":"fitted"}`,
		denseLadderJSON(32))
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

	// Plain restart: the done job must replay to the same bytes.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir, Workers: 2})
	second := waitJob(t, ts2.URL, sub.ID)
	if second.Status != "done" {
		t.Fatalf("restarted job %+v", second)
	}
	if got, _ := json.Marshal(second.Result); string(got) != string(wantResult) {
		t.Errorf("fitted result changed across restart:\n%s\nvs\n%s", got, wantResult)
	}
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-shaped restart: rewind the job file to running-with-no-points
	// (what SIGKILL mid-run leaves). The re-run must finish from stored
	// anchor cells — loaded, not recomputed — and match the first bytes.
	rewriteJobRunning(t, dir, sub.ID)
	s3, ts3 := newTestServer(t, Config{StoreDir: dir, Workers: 2})
	defer func() {
		ts3.Close()
		s3.Close()
	}()
	resumed := waitJob(t, ts3.URL, sub.ID)
	if resumed.Status != "done" {
		t.Fatalf("resumed job %+v", resumed)
	}
	if got, _ := json.Marshal(resumed.Result); string(got) != string(wantResult) {
		t.Errorf("resumed fitted result differs:\n%s\nvs\n%s", got, wantResult)
	}
	if jt := s3.jobs.Stats(); jt.CellsLoaded == 0 || jt.CellsComputed != 0 {
		t.Errorf("fitted resume should load anchors from the store: %+v", jt)
	}
}
