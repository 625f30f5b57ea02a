package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"extrap/internal/request"
)

const multiSweepBody = `{"benchmark":"grid","size":16,"iters":4,"machines":["cm5","shared-mem","generic-dm"],"procs":[1,2,4]}`

// TestSweepMachinesMultiCurve: a machines sweep answers one curve per
// machine, each byte-identical to the single-machine sweep of that
// machine, and the whole body is byte-identical at any worker count.
func TestSweepMachinesMultiCurve(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	status, base := post(t, plain.URL+"/v1/sweep", multiSweepBody)
	if status != http.StatusOK {
		t.Fatalf("multi sweep: status %d: %s", status, base)
	}
	var multi MultiSweepResponse
	if err := json.Unmarshal([]byte(base), &multi); err != nil {
		t.Fatal(err)
	}
	if len(multi.Curves) != 3 {
		t.Fatalf("%d curves, want 3", len(multi.Curves))
	}
	for _, curve := range multi.Curves {
		body := `{"benchmark":"grid","size":16,"iters":4,"machine":"` + curve.Machine + `","procs":[1,2,4]}`
		status, single := post(t, plain.URL+"/v1/sweep", body)
		if status != http.StatusOK {
			t.Fatalf("single sweep %s: status %d: %s", curve.Machine, status, single)
		}
		var sr SweepResponse
		if err := json.Unmarshal([]byte(single), &sr); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(sr.Points)
		got, _ := json.Marshal(curve.Points)
		if string(got) != string(want) {
			t.Errorf("machine %s: multi curve %s differs from single sweep %s", curve.Machine, got, want)
		}
	}

	_, wide := newTestServer(t, Config{Workers: 4})
	status, got := post(t, wide.URL+"/v1/sweep", multiSweepBody)
	if status != http.StatusOK {
		t.Fatalf("4-worker multi sweep: status %d: %s", status, got)
	}
	if got != base {
		t.Errorf("4-worker response differs from the default server's:\n%s\nvs\n%s", got, base)
	}
}

// TestSweepMachinesValidation: machine/machines exclusivity, unknown
// and duplicate names, and the list bound.
func TestSweepMachinesValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantCode string
	}{
		{"both fields", `{"benchmark":"grid","machine":"cm5","machines":["ideal"]}`, "invalid_machines"},
		{"unknown entry", `{"benchmark":"grid","machines":["cm5","nosuch"]}`, "unknown_machine"},
		{"duplicate entry", `{"benchmark":"grid","machines":["cm5","cm5"]}`, "invalid_machines"},
		{"neither field", `{"benchmark":"grid"}`, "missing_machine"},
		{"too many", `{"benchmark":"grid","machines":[` + strings.Repeat(`"cm5",`, request.MaxMachines) + `"ideal"]}`, "invalid_machines"},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v1/sweep", tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, tc.wantCode) {
			t.Errorf("%s: status %d body %s, want 400 %s", tc.name, status, body, tc.wantCode)
		}
	}
}

// TestJobMachinesBatchedByteIdenticalAcrossRestart: a multi-machine job
// on a 2-worker server completes with a MultiResult byte-identical to
// the synchronous machines sweep, and a fresh server with default
// settings on the same store serves the identical result without
// recomputing.
func TestJobMachinesBatchedByteIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 2})

	status, syncBody := post(t, ts1.URL+"/v1/sweep", multiSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sync sweep: status %d: %s", status, syncBody)
	}

	status, subBody := post(t, ts1.URL+"/v1/jobs", multiSweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, subBody)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal([]byte(subBody), &sub); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ts1.URL, sub.ID)
	if final.Status != "done" || final.MultiResult == nil || final.Result != nil {
		t.Fatalf("job finished %+v", final)
	}
	if final.TotalCells != 9 || final.DoneCells != 9 {
		t.Errorf("cells = %d/%d, want 9/9", final.DoneCells, final.TotalCells)
	}
	async, err := json.Marshal(final.MultiResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(async) != strings.TrimSpace(syncBody) {
		t.Errorf("async multi result differs from sync sweep:\n%s\nvs\n%s", async, strings.TrimSpace(syncBody))
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	second := waitJob(t, ts2.URL, sub.ID)
	if second.Status != "done" || second.MultiResult == nil {
		t.Fatalf("restarted job state %+v", second)
	}
	got, err := json.Marshal(second.MultiResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(async) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", got, async)
	}
}
