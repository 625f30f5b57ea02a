package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"extrap/internal/compose"
)

// workloadShardSpec is a nested composed spec small enough to execute
// in a test worker.
const workloadShardSpec = `{"size":8,"iters":2,"root":{"kind":"pipeline","stages":[
	{"kind":"task_farm","tasks":8,"grain":2},
	{"kind":"reduction","op":"tree"}]}}`

// TestWorkloadShardRoundTrip: a shard carrying a composed-workload spec
// alongside its derived name executes like a registry benchmark — the
// worker synthesizes the program from the spec bytes and reports cells.
func TestWorkloadShardRoundTrip(t *testing.T) {
	_, ts := newWorkerServer(t, leaseGCInterval)
	wl, err := compose.FromJSON([]byte(workloadShardSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(ShardSpec{
		Benchmark: wl.Name(),
		Workload:  wl.SpecJSON(),
		Size:      8,
		Iters:     2,
		Threads:   4,
		Machines:  []string{"cm5", "generic-dm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, body := postShard(t, ts.URL, string(spec))
	if status != http.StatusAccepted {
		t.Fatalf("workload dispatch: status %d: %s", status, body)
	}
	var acc ShardAccepted
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body = getURL(t, ts.URL+"/v1/internal/shards/"+acc.ID)
		if status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, body)
		}
		var st ShardStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == ShardDone {
			if len(st.Cells) != 2 || st.Cells[0].TotalNs <= 0 || st.Cells[1].TotalNs <= 0 {
				t.Fatalf("done workload shard has bad cells: %+v", st)
			}
			return
		}
		if st.Status == ShardFailed {
			t.Fatalf("workload shard failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("workload shard did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkloadShardRejections: a tampered name (spec bytes deriving a
// different wl:<hash> than the shard claims) and a malformed spec both
// answer typed 4xx — the worker never executes a program whose content
// address it cannot verify.
func TestWorkloadShardRejections(t *testing.T) {
	w, ts := newWorkerServer(t, leaseGCInterval)
	wl, err := compose.FromJSON([]byte(workloadShardSpec))
	if err != nil {
		t.Fatal(err)
	}
	mismatch, err := json.Marshal(ShardSpec{
		Benchmark: "wl:00000000000000000000000000000000",
		Workload:  wl.SpecJSON(),
		Size:      8, Iters: 2, Threads: 2, Machines: []string{"cm5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body, wantCode string
	}{
		{"name mismatch", string(mismatch), "workload_mismatch"},
		{"malformed spec", `{"benchmark":"wl:00000000000000000000000000000000","workload":{"root":{"kind":"warp"}},"size":8,"iters":2,"threads":2,"machines":["cm5"]}`, "invalid_workload"},
	}
	for _, tc := range cases {
		status, body := postShard(t, ts.URL, tc.body)
		if status < 400 || status >= 500 || !strings.Contains(body, tc.wantCode) {
			t.Errorf("%s: status %d body %s, want 4xx %s", tc.name, status, body, tc.wantCode)
		}
	}
	if st := w.Stats(); st.Rejected != int64(len(cases)) || st.Accepted != 0 {
		t.Errorf("stats after hostile workload dispatches: %+v", st)
	}
}
