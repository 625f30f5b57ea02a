package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"extrap/internal/compose"
	"extrap/internal/serve"
)

func allWorkloads() []*workload {
	var ws []*workload
	for _, mk := range workloads {
		ws = append(ws, mk())
	}
	return ws
}

func hashes(rs []*request) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.hash
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range allWorkloads() {
		a, b := hashes(w.stream(1)), hashes(w.stream(1))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: stream lengths %d and %d", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seed 1 gave two streams differing at request %d", w.name, i)
			}
		}
		c := hashes(w.stream(2))
		same := len(a) == len(c)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == c[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

func TestColdStreamsNeverRepeatAKey(t *testing.T) {
	for _, w := range allWorkloads() {
		if !w.cold {
			continue
		}
		if n, u := len(w.stream(1)), len(w.universe()); n < 1000 || 4*n > u {
			t.Errorf("%s: a run takes %d of %d keys; want at least 1000 and at most a quarter", w.name, n, u)
		}
		keys := map[string]bool{}
		for _, r := range w.universe() {
			k := measurementIdentity(t, r)
			if keys[k] {
				t.Fatalf("%s: two requests share the measurement key %s", w.name, k)
			}
			keys[k] = true
		}
		for _, seed := range []int64{1, 2, 3} {
			seen := map[string]bool{}
			for _, r := range w.stream(seed) {
				if seen[r.hash] {
					t.Fatalf("%s seed %d: request %s repeats", w.name, seed, r.body)
				}
				seen[r.hash] = true
			}
		}
	}
}

// measurementIdentity is what the server keys a cold request's
// measurements by, apart from the thread count: the program's name and
// its size parameters.
func measurementIdentity(t *testing.T, r *request) string {
	t.Helper()
	var sr serve.SweepRequest
	if err := json.Unmarshal(r.body, &sr); err != nil {
		t.Fatal(err)
	}
	name := sr.Benchmark
	if len(sr.Workload) > 0 {
		w, err := compose.FromJSON(sr.Workload)
		if err != nil {
			t.Fatalf("%s: %v", sr.Workload, err)
		}
		name = w.Name()
	}
	return fmt.Sprintf("%s/%d/%d", name, sr.Size, sr.Iters)
}

// TestGeneratedRequestsServe sends every warm-workload request and the
// first twenty of each cold stream to an in-process server, and checks
// each answer against the committed goldens.
func TestGeneratedRequestsServe(t *testing.T) {
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient()
	for _, w := range allWorkloads() {
		chk, err := loadGoldens(filepath.Join("golden", w.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		reqs := w.universe()
		if w.cold {
			reqs = w.stream(1)[:20]
		}
		for _, o := range sendAll(c, ts.URL, reqs, chk.check) {
			if o.err != nil {
				t.Errorf("%s: %v", w.name, o.err)
			}
		}
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{100000: 99, 1000: 99, 999: 98, 500: 98, 499: 95, 200: 95, 100: 90, 40: 75, 20: 50} {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = p%g, want p%g", n, got, want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestClosedLoopUsesAtMostTwoConnections(t *testing.T) {
	var conns, inFlight, maxInFlight atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		io.Copy(io.Discard, r.Body)
		time.Sleep(time.Millisecond)
		w.Write([]byte("ok"))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	reqs := make([]*request, 100)
	for i := range reqs {
		reqs[i] = &request{path: "/", body: []byte("{}")}
	}
	var checked atomic.Int64
	outs := sendAll(newClient(), ts.URL, reqs, func(*request, int, []byte) error {
		checked.Add(1)
		return nil
	})
	if len(outs) != len(reqs) || checked.Load() != int64(len(reqs)) {
		t.Fatalf("checked %d of %d requests", checked.Load(), len(reqs))
	}
	if conns.Load() > 2 || maxInFlight.Load() > 2 {
		t.Errorf("%d connections and %d requests in flight, want at most two", conns.Load(), maxInFlight.Load())
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "measure", Start: 110, End: 140},
		{ID: 3, Parent: 1, Name: "simulate", Start: 140, End: 190},
		// Re-runs of work inside simulate, outside its interval.
		{ID: 4, Parent: 3, Name: "compile", Start: 200, End: 205},
		{ID: 5, Parent: 3, Name: "translate", Start: 205, End: 225},
	}
	want := []int64{20, 30, 25, 5, 20}
	got := selfNs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i+1, spans[i].Name, got[i], want[i])
		}
	}
	m := ledger(spans, layerCounts{requests: 1, cells: 1}, serverVars{}, serverVars{}, 0)
	var sum float64
	for _, l := range layers {
		sum += m[l.layer+".share"].Value
	}
	if math.Abs(sum-1) > 1e-12 || m["serve.self_ms"].Value != 20e-6 {
		t.Errorf("shares sum to %v and serve.self_ms is %v, want 1 and 2e-5", sum, m["serve.self_ms"].Value)
	}
}

func TestSkippedIterationsChargeTheLongestLoopsFirst(t *testing.T) {
	ops := []repeatOp{{bodyLen: 3, iters: 4}, {bodyLen: 100, iters: 20}, {bodyLen: 7, iters: 1}}
	for iters, want := range map[uint64]uint64{0: 0, 5: 500, 19: 1900, 21: 1900 + 2*3, 100: 1900 + 3*3} {
		if got := skippedEvents(ops, iters); got != want {
			t.Errorf("skippedEvents(%d) = %d, want %d", iters, got, want)
		}
	}
}

func TestGoldenCheckFlagsMismatches(t *testing.T) {
	r := &request{path: pathSweep, body: []byte(`{"x":1}`)}
	r.hash = shortHash(r.body)
	c := &checker{want: map[string]string{r.hash: shortHash([]byte("good"))}}
	if err := c.check(r, http.StatusOK, []byte("good")); err != nil {
		t.Errorf("matching body: %v", err)
	}
	for _, tc := range []struct {
		status int
		body   string
	}{{http.StatusOK, "bad"}, {http.StatusUnprocessableEntity, "good"}} {
		if err := c.check(r, tc.status, []byte(tc.body)); err == nil {
			t.Errorf("HTTP %d %q passed the check", tc.status, tc.body)
		}
	}
	unknown := &request{path: pathSweep, body: []byte(`{}`), hash: shortHash([]byte(`{}`))}
	if err := c.check(unknown, http.StatusOK, []byte("good")); err == nil {
		t.Error("a request without a golden passed the check")
	}
}
