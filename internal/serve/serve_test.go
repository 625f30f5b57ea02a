package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/request"
	"extrap/internal/sim"
)

// newTestServer returns a Server with quiet logging and test-friendly
// defaults, plus an httptest server mounted on its handler.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status and body bytes.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
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

// extrapBody builds a small extrapolate request payload.
func extrapBody(bench string, threads int, machine string) string {
	return fmt.Sprintf(`{"benchmark":%q,"size":16,"iters":4,"threads":%d,"machine":%q}`,
		bench, threads, machine)
}

// TestConcurrentExtrapolateByteIdentical is the acceptance load test:
// 32 concurrent clients (a mix of four distinct requests) must each get
// a 200 with a body byte-identical to the sequential run's. Under -race
// this also proves the shared cache/simulation path is data-race-free.
func TestConcurrentExtrapolateByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 64, Workers: 4})

	payloads := []string{
		extrapBody("grid", 4, "cm5"),
		extrapBody("grid", 4, "generic-dm"),
		extrapBody("cyclic", 8, "cm5"),
		extrapBody("embar", 2, "shared-mem"),
	}
	want := make(map[string]string)
	for _, p := range payloads {
		status, body := post(t, ts.URL+"/v1/extrapolate", p)
		if status != http.StatusOK {
			t.Fatalf("sequential request %s: status %d: %s", p, status, body)
		}
		want[p] = body
	}

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		p := payloads[i%len(payloads)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/extrapolate", "application/json", strings.NewReader(p))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if string(body) != want[p] {
				errs <- fmt.Errorf("concurrent body differs from sequential:\n%s\nvs\n%s", body, want[p])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInFlightLimit: with one slot held and no queueing, the next
// compute request must be shed with 429 and a typed error body, and
// succeed again after the slot frees.
func TestInFlightLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 0})

	if !s.lim.acquire(context.Background()) {
		t.Fatal("could not take the only slot")
	}
	resp, err := http.Post(ts.URL+"/v1/extrapolate", "application/json",
		strings.NewReader(extrapBody("grid", 4, "cm5")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"code":"overloaded"`) {
		t.Errorf("429 body missing typed code: %s", body)
	}
	// Retry-After must be a backlog-derived integer, not a constant
	// sentinel; with an idle queue the floor is one second.
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Errorf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	} else if ra < 1 || ra > 30 {
		t.Errorf("Retry-After = %d, want within [1, 30]", ra)
	}
	s.lim.release()

	status, body := post(t, ts.URL+"/v1/extrapolate", extrapBody("grid", 4, "cm5"))
	if status != http.StatusOK {
		t.Fatalf("after release: status = %d: %s", status, body)
	}
}

// TestRetryAfterScalesWithBacklog: queued waiters must raise the advice
// returned to shed clients — Retry-After is derived from queue depth,
// not a constant.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, QueueWait: 2 * time.Second})

	if !s.lim.acquire(context.Background()) {
		t.Fatal("could not take the only slot")
	}
	defer s.lim.release()
	// Park waiters in the queue to build a backlog.
	const waiters = 3
	release := make(chan struct{})
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-release; cancel() }()
			if s.lim.acquire(ctx) {
				s.lim.release()
			}
		}()
	}
	defer func() { close(release); wg.Wait() }()
	deadline := time.Now().Add(time.Second)
	for s.lim.backlog() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("backlog = %d, want %d", s.lim.backlog(), waiters)
		}
		time.Sleep(time.Millisecond)
	}

	// Drive the limited wrapper directly with an already-cancelled
	// request context: acquire sheds immediately, and the 429 must carry
	// advice scaled to the parked waiters.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/extrapolate",
		strings.NewReader(extrapBody("grid", 4, "cm5"))).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.limited("extrapolate", func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran despite shed")
	})(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", rec.Header().Get("Retry-After"), err)
	}
	if ra < 1+waiters {
		t.Errorf("Retry-After = %d with backlog %d, want >= %d", ra, waiters, 1+waiters)
	}
}

// TestLimitedLabelsRoute: a handler behind limited runs under the pprof
// label route=<name>, so CPU profiles attribute its work to the route.
func TestLimitedLabelsRoute(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var got string
	var ok bool
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader("{}"))
	s.limited("sweep", func(_ http.ResponseWriter, r *http.Request) {
		got, ok = pprof.Label(r.Context(), "route")
	})(httptest.NewRecorder(), req)
	if !ok || got != "sweep" {
		t.Errorf("route label = %q (set: %v), want \"sweep\"", got, ok)
	}
}

// TestLimiterQueueing: with queueing enabled, a briefly-held slot delays
// rather than sheds the next request.
func TestLimiterQueueing(t *testing.T) {
	l := newLimiter(1, 2*time.Second)
	if !l.acquire(context.Background()) {
		t.Fatal("first acquire failed")
	}
	done := make(chan bool)
	go func() { done <- l.acquire(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	l.release()
	if !<-done {
		t.Error("queued acquire did not get the freed slot")
	}
	l.release()

	// A dead context sheds a queued waiter.
	if !l.acquire(context.Background()) {
		t.Fatal("re-acquire failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if l.acquire(ctx) {
		t.Error("acquire succeeded past its context deadline")
	}
	l.release()
}

// TestDebugVarsExportsCacheHits: repeated identical requests must show
// non-zero cache_hits at /debug/vars, plus request/status counters.
func TestDebugVarsExportsCacheHits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := extrapBody("grid", 4, "cm5")
	for i := 0; i < 3; i++ {
		if status, b := post(t, ts.URL+"/v1/extrapolate", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, b)
		}
	}
	status, varsBody := get(t, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars status %d", status)
	}
	var vars struct {
		ExtrapServe struct {
			Requests    map[string]int64 `json:"requests"`
			Statuses    map[string]int64 `json:"responses_by_status"`
			CacheHits   int64            `json:"cache_hits"`
			CacheMisses int64            `json:"cache_misses"`
			LatencyUs   int64            `json:"latency_us_total"`
		} `json:"extrap_serve"`
		Memstats map[string]any `json:"memstats"`
	}
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, varsBody)
	}
	es := vars.ExtrapServe
	if es.CacheHits == 0 {
		t.Errorf("cache_hits = 0 after repeated identical requests\n%s", varsBody)
	}
	if es.CacheMisses != 1 {
		t.Errorf("cache_misses = %d, want 1", es.CacheMisses)
	}
	if es.Requests["/v1/extrapolate"] != 3 {
		t.Errorf("request counter = %d, want 3", es.Requests["/v1/extrapolate"])
	}
	if es.Statuses["2xx"] != 3 {
		t.Errorf("2xx counter = %d, want 3", es.Statuses["2xx"])
	}
	if es.LatencyUs <= 0 {
		t.Errorf("latency_us_total = %d, want > 0", es.LatencyUs)
	}
	if len(vars.Memstats) == 0 {
		t.Error("expvar globals (memstats) missing from /debug/vars")
	}
}

// TestDebugVarsSimReplaySubmap: /debug/vars exposes the replay kernel
// counters under extrap_serve.sim — exactly the four counters, whichever
// way the kernel replayed the traffic: skipping steady iterations of a
// loop-heavy measurement, or replaying every event of one too short for
// fast-forward to skip.
func TestDebugVarsSimReplaySubmap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
		skips bool
	}{
		{"pattern", 120, true},
		{"event", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			body := fmt.Sprintf(`{"benchmark":"grid","size":16,"iters":%d,"threads":4,"machine":"cm5"}`, tc.iters)
			before := sim.ReadReplayCounters().IterationsSkipped
			if status, b := post(t, ts.URL+"/v1/extrapolate", body); status != http.StatusOK {
				t.Fatalf("extrapolate: status %d: %s", status, b)
			}
			if skipped := sim.ReadReplayCounters().IterationsSkipped - before; (skipped > 0) != tc.skips {
				t.Fatalf("%d iterations skipped, want skipping %v", skipped, tc.skips)
			}
			status, varsBody := get(t, ts.URL+"/debug/vars")
			if status != http.StatusOK {
				t.Fatalf("/debug/vars status %d", status)
			}
			var vars struct {
				ExtrapServe struct {
					Sim map[string]int64 `json:"sim"`
				} `json:"extrap_serve"`
			}
			if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
				t.Fatalf("/debug/vars is not JSON: %v\n%s", err, varsBody)
			}
			sm := vars.ExtrapServe.Sim
			if sm == nil {
				t.Fatalf("sim submap missing from /debug/vars\n%.400s", varsBody)
			}
			for _, key := range []string{"ff_attempts", "fast_forwards", "iterations_skipped", "fallbacks"} {
				if _, ok := sm[key]; !ok {
					t.Errorf("sim submap missing %q\n%.400s", key, varsBody)
				}
			}
			if len(sm) != 4 {
				t.Errorf("sim submap has keys beyond the four counters: %v", sm)
			}
		})
	}
}

// TestValidationErrors: malformed and out-of-range inputs return typed
// error envelopes with the right status.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed json", `{`, http.StatusBadRequest, "invalid_json"},
		{"unknown field", `{"benchmark":"grid","threads":4,"machine":"cm5","bogus":1}`, http.StatusBadRequest, "invalid_json"},
		{"missing benchmark", `{"threads":4,"machine":"cm5"}`, http.StatusBadRequest, "missing_benchmark"},
		{"unknown benchmark", `{"benchmark":"nosuch","threads":4,"machine":"cm5"}`, http.StatusBadRequest, "unknown_benchmark"},
		{"missing machine", `{"benchmark":"grid","threads":4}`, http.StatusBadRequest, "missing_machine"},
		{"unknown machine", `{"benchmark":"grid","threads":4,"machine":"nosuch"}`, http.StatusBadRequest, "unknown_machine"},
		{"zero threads", `{"benchmark":"grid","machine":"cm5"}`, http.StatusBadRequest, "invalid_threads"},
		{"huge threads", `{"benchmark":"grid","threads":100000,"machine":"cm5"}`, http.StatusBadRequest, "invalid_threads"},
		{"negative size", `{"benchmark":"grid","size":-1,"threads":4,"machine":"cm5"}`, http.StatusBadRequest, "invalid_size"},
		{"huge iters", `{"benchmark":"grid","iters":99999999,"threads":4,"machine":"cm5"}`, http.StatusBadRequest, "invalid_iters"},
		{"non-divisor procs", `{"benchmark":"grid","threads":4,"procs":3,"machine":"cm5"}`, http.StatusBadRequest, "invalid_procs"},
		{"negative procs", `{"benchmark":"grid","threads":4,"procs":-2,"machine":"cm5"}`, http.StatusBadRequest, "invalid_procs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/v1/extrapolate", tc.body)
			if status != tc.status {
				t.Errorf("status = %d, want %d (%s)", status, tc.status, body)
			}
			if !strings.Contains(body, fmt.Sprintf("%q:%q", "code", tc.code)) {
				t.Errorf("body missing code %q: %s", tc.code, body)
			}
		})
	}

	// Sweep-specific validation.
	status, body := post(t, ts.URL+"/v1/sweep", `{"benchmark":"grid","machine":"cm5","procs":[0]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "invalid_procs") {
		t.Errorf("bad ladder: status %d body %s", status, body)
	}
	status, body = post(t, ts.URL+"/v1/sweep",
		`{"benchmark":"grid","machine":"cm5","procs":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "invalid_procs") {
		t.Errorf("oversized ladder: status %d body %s", status, body)
	}

	// Wrong method on a POST route is a 405 from the pattern router.
	if status, _ := get(t, ts.URL+"/v1/extrapolate"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status %d, want 405", status)
	}
}

// TestRequestTimeout: an unmeetable deadline surfaces as 504 with the
// "timeout" code rather than hanging or returning 500.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, body := post(t, ts.URL+"/v1/extrapolate", extrapBody("grid", 4, "cm5"))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, body)
	}
	if !strings.Contains(body, `"code":"timeout"`) {
		t.Errorf("504 body missing timeout code: %s", body)
	}
}

// TestSweepEndpoint: a ladder sweep returns one deterministic point per
// entry with sane speedup/efficiency, byte-identical on repeat.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	body := `{"benchmark":"cyclic","size":64,"iters":4,"machine":"cm5","procs":[1,2,4]}`
	status, first := post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	var resp SweepResponse
	if err := json.Unmarshal([]byte(first), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(resp.Points))
	}
	for i, want := range []int{1, 2, 4} {
		p := resp.Points[i]
		if p.Procs != want || p.PredictedMs <= 0 {
			t.Errorf("point %d = %+v, want procs %d and positive time", i, p, want)
		}
	}
	if resp.Points[0].Speedup != 1 || resp.Points[0].Efficiency != 1 {
		t.Errorf("1-proc point not the baseline: %+v", resp.Points[0])
	}
	if _, second := post(t, ts.URL+"/v1/sweep", body); second != first {
		t.Errorf("repeat sweep differs:\n%s\nvs\n%s", second, first)
	}
}

// TestUnmeasurableSizeIs422: a size whose program cannot be laid out
// (sort with fewer keys than threads, mgrid without multigrid levels)
// fails in the program's Setup, for a sweep on a pool worker. Both routes
// must answer 422 extrapolation_failed, and the server must stay up.
func TestUnmeasurableSizeIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, c := range []struct{ path, body string }{
		{"/v1/sweep", `{"benchmark":"sort","size":16,"machine":"cm5"}`},
		{"/v1/sweep", `{"benchmark":"mgrid","size":2,"machine":"cm5"}`},
		{"/v1/extrapolate", `{"benchmark":"sort","size":16,"threads":32,"machine":"cm5"}`},
		{"/v1/extrapolate", `{"benchmark":"mgrid","size":2,"threads":4,"machine":"cm5"}`},
	} {
		status, body := post(t, ts.URL+c.path, c.body)
		if status != http.StatusUnprocessableEntity || !strings.Contains(body, `"code":"extrapolation_failed"`) {
			t.Errorf("%s %s: status %d body %s, want 422 extrapolation_failed", c.path, c.body, status, body)
		}
	}
	if status, body := get(t, ts.URL+"/v1/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after failed measurements: status %d: %s", status, body)
	}
}

// TestRegistryEndpoints: benchmark and machine listings enumerate the
// registries in sorted order.
func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/benchmarks")
	if status != http.StatusOK {
		t.Fatalf("benchmarks status %d", status)
	}
	var bs []BenchmarkInfo
	if err := json.Unmarshal([]byte(body), &bs); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, b := range bs {
		names[b.Name] = true
	}
	for _, want := range []string{"grid", "cyclic", "embar", "matmul"} {
		if !names[want] {
			t.Errorf("benchmark list missing %q", want)
		}
	}

	status, body = get(t, ts.URL+"/v1/machines")
	if status != http.StatusOK {
		t.Fatalf("machines status %d", status)
	}
	var ms []MachineInfo
	if err := json.Unmarshal([]byte(body), &ms); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Name == "cm5" {
			found = true
		}
	}
	if !found {
		t.Error("machine list missing cm5")
	}

	if status, body := get(t, ts.URL+"/v1/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %s", status, body)
	}
}

// TestPprofGating: pprof routes exist only when enabled.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if status, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("pprof served while disabled: %d", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if status, _ := get(t, on.URL+"/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof index status %d, want 200", status)
	}
}

// TestGracefulShutdown: cancelling the serve context drains and returns
// nil; the listener stops accepting afterward.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	status, _ := get(t, url+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Error("server still accepting after shutdown")
	}
}

// TestWorkBudgetBoundsCombinedProduct: each field within its individual
// ceiling must still be rejected when the combined size×iters×threads
// product is extreme — otherwise one request near every ceiling holds an
// in-flight slot for hours.
func TestWorkBudgetBoundsCombinedProduct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"benchmark":"grid","size":65536,"iters":65536,"threads":256,"machine":"cm5"}`
	status, resp := post(t, ts.URL+"/v1/extrapolate", body)
	if status != http.StatusBadRequest || !strings.Contains(resp, "work_budget_exceeded") {
		t.Errorf("extrapolate: status %d body %s, want 400 work_budget_exceeded", status, resp)
	}
	// The sweep budget covers the ladder's thread total.
	body = `{"benchmark":"grid","size":65536,"iters":4096,"machine":"cm5","procs":[256,256,256,256]}`
	status, resp = post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusBadRequest || !strings.Contains(resp, "work_budget_exceeded") {
		t.Errorf("sweep: status %d body %s, want 400 work_budget_exceeded", status, resp)
	}
	// Paper-scale configurations stay comfortably inside the budget.
	status, resp = post(t, ts.URL+"/v1/extrapolate", `{"benchmark":"sort","threads":32,"machine":"cm5"}`)
	if status != http.StatusOK {
		t.Errorf("paper-scale sort: status %d body %s, want 200", status, resp)
	}
}

// TestWorkBudgetCountsKernelMemory: grid, mgrid, poisson and matmul
// allocate Θ(N²) floats, and cyclic Θ(N·iters), before their first
// event, so a request the size × iters × threads proxy admits can ask
// for tens of gigabytes, and running out of memory is a fatal error no
// recover catches. Each kernel's work estimate counts those floats, so
// such a request is refused with 400 work_budget_exceeded before
// anything is measured.
func TestWorkBudgetCountsKernelMemory(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		path, body string
		size       benchmarks.Size
	}{
		{"/v1/extrapolate", `{"benchmark":"grid","size":65536,"iters":1,"threads":1,"machine":"ideal"}`, benchmarks.Size{N: 65536, Iters: 1}},
		{"/v1/extrapolate", `{"benchmark":"mgrid","size":65536,"iters":1,"threads":1,"machine":"ideal"}`, benchmarks.Size{N: 65536, Iters: 1}},
		{"/v1/extrapolate", `{"benchmark":"poisson","size":65536,"threads":1,"machine":"ideal"}`, benchmarks.Size{N: 65536}},
		{"/v1/extrapolate", `{"benchmark":"matmul","size":65536,"threads":1,"machine":"ideal"}`, benchmarks.Size{N: 65536}},
		{"/v1/extrapolate", `{"benchmark":"cyclic","size":65536,"iters":1024,"threads":1,"machine":"ideal"}`, benchmarks.Size{N: 65536, Iters: 1024}},
		{"/v1/sweep", `{"benchmark":"grid","size":65536,"iters":1,"machine":"ideal","procs":[1]}`, benchmarks.Size{N: 65536, Iters: 1}},
	}
	for _, tc := range cases {
		// The proxy alone would admit every case.
		if w := benchmarks.ProxyWorkUnits(tc.size, 1); w > request.MaxWorkUnits {
			t.Fatalf("%s: proxy %d already exceeds the budget", tc.body, w)
		}
		status, resp := post(t, ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(resp, "work_budget_exceeded") {
			t.Errorf("%s %s: status %d body %s, want 400 work_budget_exceeded", tc.path, tc.body, status, resp)
		}
	}
	if _, misses := srv.svc.CacheStats(); misses != 0 {
		t.Errorf("%d measurements started; a refused request must measure nothing", misses)
	}
}

// TestPipelineErrorStatusMapping: the server's deadline is a 504, a
// client disconnect is a 499 (so aborted clients don't count as server
// 5xx), and anything else is a 422.
func TestPipelineErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("sim: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "timeout"},
		{fmt.Errorf("sim: %w", context.Canceled), statusClientClosedRequest, "client_closed_request"},
		{fmt.Errorf("bad topology"), http.StatusUnprocessableEntity, "extrapolation_failed"},
	}
	for _, tc := range cases {
		e := pipelineError(tc.err)
		if e.Status != tc.status || e.Code != tc.code {
			t.Errorf("pipelineError(%v) = %d %q, want %d %q", tc.err, e.Status, e.Code, tc.status, tc.code)
		}
	}
	if got := statusClass(statusClientClosedRequest); got != "4xx" {
		t.Errorf("statusClass(499) = %q, want 4xx", got)
	}
}

// TestTimeoutInterruptsHeavyMeasurement: a measurement that would run
// for ~10s uninterrupted must be aborted by the request deadline — the
// context is polled inside the measurement runtime, so a pathological
// request cannot hold its in-flight slot past RequestTimeout.
func TestTimeoutInterruptsHeavyMeasurement(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	start := time.Now()
	// embar's size parameter is an exponent: N=28 means 2^28 samples.
	status, body := post(t, ts.URL+"/v1/extrapolate",
		`{"benchmark":"embar","size":28,"threads":2,"machine":"cm5"}`)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, body)
	}
	if !strings.Contains(body, `"code":"timeout"`) {
		t.Errorf("504 body missing timeout code: %s", body)
	}
	if elapsed > 2500*time.Millisecond {
		t.Errorf("request took %v; the measurement was not interrupted by its deadline", elapsed)
	}
}

// TestClientDisconnectCountsAs4xx: a client that goes away mid-pipeline
// must be accounted as 499 (4xx), not 5xx, so error-rate metrics track
// server failures only.
func TestClientDisconnectCountsAs4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/extrapolate",
		strings.NewReader(`{"benchmark":"embar","size":28,"threads":2,"machine":"cm5"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("heavy request finished before the client deadline; raise the problem size")
	}

	// The server finishes accounting the aborted request asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, varsBody := get(t, ts.URL+"/debug/vars")
		var vars struct {
			ExtrapServe struct {
				Statuses map[string]int64 `json:"responses_by_status"`
			} `json:"extrap_serve"`
		}
		if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
			t.Fatalf("/debug/vars not JSON: %v", err)
		}
		if vars.ExtrapServe.Statuses["5xx"] > 0 {
			t.Fatalf("client disconnect accounted as 5xx: %s", varsBody)
		}
		if vars.ExtrapServe.Statuses["4xx"] > 0 {
			return // 499 landed in the 4xx bucket
		}
		if time.Now().After(deadline) {
			t.Fatalf("aborted request never accounted: %s", varsBody)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
