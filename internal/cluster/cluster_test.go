package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/request"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// newWorkerServer mounts a Worker's endpoints the way serve does and
// returns both, with cleanup registered.
func newWorkerServer(t *testing.T, gc time.Duration) (*Worker, *httptest.Server) {
	t.Helper()
	svc := experiments.NewService(2, 64, 256<<20)
	w := NewWorker(svc, gc)
	t.Cleanup(w.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/shards", w.HandleDispatch)
	mux.HandleFunc("GET /v1/internal/shards/{id}", w.HandlePoll)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return w, ts
}

func postShard(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/internal/shards", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func getURL(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// validShard is a small spec every replica can execute.
const validShard = `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"]}`

// TestDispatchRejectsHostileSpecs: every malformed or over-budget spec
// answers a typed 4xx — never a panic, never an accept. The worker's
// counters must classify them all as rejections.
func TestDispatchRejectsHostileSpecs(t *testing.T) {
	w, ts := newWorkerServer(t, 0)
	manyMachines := `["cm5"` + strings.Repeat(`,"cm5"`, request.MaxMachines) + `]`
	cases := []struct {
		name, body, wantCode string
	}{
		{"not json", `{{{`, "invalid_json"},
		{"unknown field", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"],"sneaky":1}`, "invalid_json"},
		{"missing benchmark", `{"size":16,"iters":4,"threads":2,"machines":["cm5"]}`, "missing_benchmark"},
		{"unknown benchmark", `{"benchmark":"nope","size":16,"iters":4,"threads":2,"machines":["cm5"]}`, "unknown_benchmark"},
		{"unresolved size", `{"benchmark":"grid","size":0,"iters":4,"threads":2,"machines":["cm5"]}`, "invalid_size"},
		{"negative iters", `{"benchmark":"grid","size":16,"iters":-1,"threads":2,"machines":["cm5"]}`, "invalid_size"},
		{"zero threads", `{"benchmark":"grid","size":16,"iters":4,"threads":0,"machines":["cm5"]}`, "invalid_threads"},
		{"threads over cap", fmt.Sprintf(`{"benchmark":"grid","size":16,"iters":4,"threads":%d,"machines":["cm5"]}`, request.MaxThreads+1), "invalid_threads"},
		{"work budget", fmt.Sprintf(`{"benchmark":"grid","size":%d,"iters":%d,"threads":256,"machines":["cm5"]}`, 1<<16, 1<<16), "work_budget_exceeded"},
		{"no machines", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":[]}`, "invalid_machines"},
		{"too many machines", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":` + manyMachines + `}`, "invalid_machines"},
		{"duplicate machine", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5","cm5"]}`, "invalid_machines"},
		{"unknown machine", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["enigma"]}`, "unknown_machine"},
		{"lease under floor", `{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"],"lease_ms":5}`, "invalid_lease"},
		{"lease over ceiling", fmt.Sprintf(`{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"],"lease_ms":%d}`, MaxLeaseMs+1), "invalid_lease"},
	}
	for _, tc := range cases {
		status, body := postShard(t, ts.URL, tc.body)
		if status < 400 || status >= 500 || !strings.Contains(body, tc.wantCode) {
			t.Errorf("%s: status %d body %s, want 4xx %s", tc.name, status, body, tc.wantCode)
		}
	}
	if st := w.Stats(); st.Rejected != int64(len(cases)) || st.Accepted != 0 {
		t.Errorf("stats after hostile dispatches: %+v, want %d rejected, 0 accepted", st, len(cases))
	}
}

// TestDispatchAcceptsZeroIterationKernel: iters 0 is the resolved
// value for a kernel without an iteration count (embar), so a shard
// carrying it is accepted and runs to done — the shape every
// coordinator sends for embar, sort, poisson and matmul.
func TestDispatchAcceptsZeroIterationKernel(t *testing.T) {
	w, ts := newWorkerServer(t, 0)
	status, body := postShard(t, ts.URL, `{"benchmark":"embar","size":16,"iters":0,"threads":2,"machines":["cm5"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("dispatch: status %d: %s, want 202", status, body)
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
			if len(st.Cells) != 1 || st.Cells[0].Machine != "cm5" || st.Cells[0].TotalNs <= 0 {
				t.Fatalf("done shard has bad cells: %+v", st)
			}
			break
		}
		if st.Status == ShardFailed {
			t.Fatalf("shard failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("shard did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := w.Stats(); st.Accepted != 1 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want 1 accepted, 0 rejected", st)
	}
}

// TestDispatchRejectsOversizedBody: a spec past MaxShardBodyBytes is
// cut off by the body cap and answers 400, whatever its content.
func TestDispatchRejectsOversizedBody(t *testing.T) {
	_, ts := newWorkerServer(t, 0)
	huge := `{"benchmark":"` + strings.Repeat("a", MaxShardBodyBytes) + `"}`
	status, body := postShard(t, ts.URL, huge)
	if status != http.StatusBadRequest || !strings.Contains(body, "invalid_json") {
		t.Errorf("oversized spec: status %d body %.200s, want 400 invalid_json", status, body)
	}
}

// TestPollUnknownShard: polling an ID that was never dispatched — or a
// forged one — answers 404 with the typed envelope.
func TestPollUnknownShard(t *testing.T) {
	_, ts := newWorkerServer(t, 0)
	status, body := getURL(t, ts.URL+"/v1/internal/shards/s-deadbeef")
	if status != http.StatusNotFound || !strings.Contains(body, "unknown_shard") {
		t.Errorf("unknown poll: status %d body %s, want 404 unknown_shard", status, body)
	}
}

// TestPollReplayedAfterCollection: a terminal shard is collected when
// its result is delivered, so REPLAYING the poll answers 404 — a stale
// or duplicated coordinator cannot keep a worker's memory pinned.
func TestPollReplayedAfterCollection(t *testing.T) {
	_, ts := newWorkerServer(t, 0)
	status, body := postShard(t, ts.URL, validShard)
	if status != http.StatusAccepted {
		t.Fatalf("dispatch: status %d: %s", status, body)
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
			if len(st.Cells) != 1 || st.Cells[0].Machine != "cm5" || st.Cells[0].TotalNs <= 0 {
				t.Fatalf("done shard has bad cells: %+v", st)
			}
			break
		}
		if st.Status == ShardFailed {
			t.Fatalf("shard failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("shard did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The delivery above collected the shard; the replay must 404.
	status, body = getURL(t, ts.URL+"/v1/internal/shards/"+acc.ID)
	if status != http.StatusNotFound || !strings.Contains(body, "unknown_shard") {
		t.Errorf("replayed poll: status %d body %s, want 404 unknown_shard", status, body)
	}
}

// TestExpiredLeaseIsCollected: a shard whose coordinator stops polling
// is garbage-collected once the lease lapses, and later polls answer
// 404 — the signal that makes the (merely partitioned) coordinator
// re-dispatch rather than wait forever.
func TestExpiredLeaseIsCollected(t *testing.T) {
	w, ts := newWorkerServer(t, 5*time.Millisecond)
	status, body := postShard(t, ts.URL,
		`{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5"],"lease_ms":100}`)
	if status != http.StatusAccepted {
		t.Fatalf("dispatch: status %d: %s", status, body)
	}
	var acc ShardAccepted
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Space the polls past the lease so a renewal cannot keep the
		// shard alive indefinitely.
		time.Sleep(150 * time.Millisecond)
		status, body = getURL(t, ts.URL+"/v1/internal/shards/"+acc.ID)
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired; last poll: status %d body %s", status, body)
		}
	}
	if st := w.Stats(); st.Expired == 0 {
		t.Errorf("expired counter not incremented: %+v", st)
	}
}

// mapSource is an in-memory ArtifactSource.
type mapSource map[[32]byte][]byte

func (m mapSource) GetByHash(h [32]byte) ([]byte, bool) {
	p, ok := m[h]
	return p, ok
}

// TestArtifactHandlerHostile: malformed keyhashes answer 400, unknown
// (or deliberately mismatched) ones 404, and a hit streams the exact
// payload bytes.
func TestArtifactHandlerHostile(t *testing.T) {
	key := core.CacheKey{Bench: "grid", N: 16, Iters: 4, Threads: 2}
	canon := key.CanonicalFormat(trace.FormatXTRP2)
	h := sha256.Sum256([]byte(canon))
	payload := []byte("xart1-payload-bytes")
	src := mapSource{h: payload}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/internal/artifacts/{keyhash}", ArtifactHandler(src))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	hexhash := fmt.Sprintf("%x", h)
	cases := []struct {
		name, path string
		wantStatus int
		wantBody   string
	}{
		{"not hex", "zz" + strings.Repeat("0", 62), http.StatusBadRequest, "invalid_keyhash"},
		{"too short", strings.Repeat("ab", 8), http.StatusBadRequest, "invalid_keyhash"},
		{"too long", strings.Repeat("ab", 40), http.StatusBadRequest, "invalid_keyhash"},
		{"mismatched hash", strings.Repeat("ab", 32), http.StatusNotFound, "unknown_artifact"},
		{"hit", hexhash, http.StatusOK, string(payload)},
	}
	for _, tc := range cases {
		status, body := getURL(t, ts.URL+"/v1/internal/artifacts/"+tc.path)
		if status != tc.wantStatus || !strings.Contains(body, tc.wantBody) {
			t.Errorf("%s: status %d body %.120q, want %d containing %q", tc.name, status, body, tc.wantStatus, tc.wantBody)
		}
	}
}

// memBackend is an in-memory core.TraceBackend for chain tests.
type memBackend map[string][]byte

func (m memBackend) GetTrace(key core.CacheKey, format trace.Format) ([]byte, bool) {
	enc, ok := m[key.CanonicalFormat(format)]
	return enc, ok
}
func (m memBackend) PutTrace(key core.CacheKey, format trace.Format, enc []byte) {
	m[key.CanonicalFormat(format)] = enc
}

// TestRemoteBackendAndChain: RemoteBackend addresses artifacts by the
// same canonical hash the store uses, treats every failure as a miss,
// and ChainBackend writes remote hits through to the local tier.
func TestRemoteBackendAndChain(t *testing.T) {
	key := core.CacheKey{Bench: "grid", N: 16, Iters: 4, Threads: 2}
	format := trace.FormatXTRP2
	payload := []byte("encoded-trace")
	h := sha256.Sum256([]byte(key.CanonicalFormat(format)))
	src := mapSource{h: payload}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/internal/artifacts/{keyhash}", ArtifactHandler(src))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rb := NewRemoteBackend(ts.URL, 1<<20)
	if got, ok := rb.GetTrace(key, format); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("remote get: ok=%v got=%q", ok, got)
	}
	missKey := core.CacheKey{Bench: "grid", N: 99, Iters: 4, Threads: 2}
	if _, ok := rb.GetTrace(missKey, format); ok {
		t.Error("remote get of absent artifact reported a hit")
	}
	// A payload past the cap is a miss, not a truncated hit.
	tiny := NewRemoteBackend(ts.URL, 4)
	if _, ok := tiny.GetTrace(key, format); ok {
		t.Error("oversized payload should read as a miss")
	}
	// A dead peer is a miss.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()
	if _, ok := NewRemoteBackend(deadURL, 1<<20).GetTrace(key, format); ok {
		t.Error("unreachable peer should read as a miss")
	}

	local := memBackend{}
	chain := &ChainBackend{Local: local, Remote: rb}
	if got, ok := chain.GetTrace(key, format); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("chain get: ok=%v got=%q", ok, got)
	}
	if enc, ok := local.GetTrace(key, format); !ok || !bytes.Equal(enc, payload) {
		t.Error("remote hit was not written through to the local tier")
	}
	// PutTrace stays local: the remote source must not grow.
	chain.PutTrace(missKey, format, []byte("local-only"))
	if len(src) != 1 {
		t.Errorf("PutTrace leaked to the remote source: %d entries", len(src))
	}
}

// TestRetryAfterSeconds: the shared back-off hint scales with backlog
// pressure, floors at 1, and caps at 30 — and tolerates degenerate
// inputs without dividing by zero.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct{ backlog, capacity, want int }{
		{0, 4, 1},
		{3, 4, 1},
		{4, 4, 2},
		{9, 4, 3},
		{100, 4, 26},
		{1000, 4, 30},
		{256, 256, 2},
		{-5, 4, 1},
		{10, 0, 11},
		{1 << 30, 1, 30},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.backlog, tc.capacity); got != tc.want {
			t.Errorf("RetryAfterSeconds(%d, %d) = %d, want %d", tc.backlog, tc.capacity, got, tc.want)
		}
	}
}

// TestRunningShardHoldsLease is the regression test for the duplicate-
// work bug: a shard still EXECUTING must not be reaped when its lease
// timestamp lapses between coordinator polls — execution in flight IS
// the lease. Only after the shard turns terminal does the (restarted)
// clock age it out.
func TestRunningShardHoldsLease(t *testing.T) {
	svc := experiments.NewService(1, 64, 0)
	w := NewWorker(svc, 5*time.Millisecond)
	t.Cleanup(w.Close)

	// A running shard whose expiry lapsed long ago — the shape the gc
	// loop sees when execution outruns the poll cadence.
	sh := &shard{
		id:     "s-heldlease",
		cancel: func() {},
		status: ShardRunning,
		lease:  50 * time.Millisecond,
		expiry: time.Now().Add(-time.Hour),
	}
	w.mu.Lock()
	w.shards[sh.id] = sh
	w.mu.Unlock()

	// Let the collector tick many times over the stale expiry.
	time.Sleep(60 * time.Millisecond)
	w.mu.Lock()
	_, alive := w.shards[sh.id]
	w.mu.Unlock()
	if !alive {
		t.Fatal("running shard with lapsed lease was reaped mid-execution")
	}
	if st := w.Stats(); st.Expired != 0 {
		t.Fatalf("expired counter moved for a running shard: %+v", st)
	}

	// Completion restarts the clock (what the executor goroutine does);
	// only from here does abandonment age the shard out.
	sh.mu.Lock()
	sh.status = ShardDone
	sh.expiry = time.Now().Add(sh.lease)
	sh.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		_, alive = w.shards[sh.id]
		w.mu.Unlock()
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal shard with lapsed lease was never collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := w.Stats(); st.Expired != 1 {
		t.Errorf("expired counter after terminal collection: %+v, want Expired=1", st)
	}
}

// TestDispatchedShardSurvivesSilentCoordinator drives the same property
// end to end: execution pinned to outlast the minimum lease several
// times over, no polls while it runs, and the first (late) poll must
// deliver the result — not 404 — with zero expirations and exactly one
// accepted+completed. Under the old reaper (which ignored status) the
// gc loop would collect the shard mid-execution and the re-dispatching
// coordinator would redo the work.
func TestDispatchedShardSurvivesSilentCoordinator(t *testing.T) {
	const lease = MinLeaseMs * time.Millisecond
	execDone := make(chan struct{})
	prev := runPoint
	runPoint = func(svc *experiments.Service, ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
		defer close(execDone)
		// Hold execution across several lease windows before running the
		// real pipeline.
		select {
		case <-time.After(3 * lease):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return prev(svc, ctx, b, sz, f, threads, envs)
	}
	defer func() { runPoint = prev }()

	w, ts := newWorkerServer(t, 5*time.Millisecond)
	status, body := postShard(t, ts.URL,
		fmt.Sprintf(`{"benchmark":"grid","size":16,"iters":4,"threads":2,"machines":["cm5","generic-dm"],"lease_ms":%d}`, MinLeaseMs))
	if status != http.StatusAccepted {
		t.Fatalf("dispatch: status %d: %s", status, body)
	}
	var acc ShardAccepted
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	// Silent coordinator: no polls until execution has finished.
	<-execDone
	deadline := time.Now().Add(30 * time.Second)
	var st ShardStatus
	for {
		status, body = getURL(t, ts.URL+"/v1/internal/shards/"+acc.ID)
		if status != http.StatusOK {
			t.Fatalf("late poll: status %d body %s, want 200", status, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != ShardRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Status != ShardDone || len(st.Cells) != 2 {
		t.Fatalf("shard = %+v, want done with 2 cells", st)
	}
	if stats := w.Stats(); stats.Expired != 0 || stats.Accepted != 1 || stats.Completed != 1 {
		t.Errorf("stats = %+v, want 1 accepted, 1 completed, 0 expired", stats)
	}
}

// TestDispatchCapacityRejectionRetryAfter: a worker at its shard limit
// answers 429 with an integer backlog-derived Retry-After.
func TestDispatchCapacityRejectionRetryAfter(t *testing.T) {
	w, ts := newWorkerServer(t, 0)
	w.mu.Lock()
	for i := 0; i < maxActiveShards; i++ {
		id := fmt.Sprintf("s-fill%04d", i)
		w.shards[id] = &shard{id: id, cancel: func() {}, status: ShardDone, lease: time.Hour, expiry: time.Now().Add(time.Hour)}
	}
	w.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/internal/shards", "application/json", strings.NewReader(validShard))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(buf.String(), "overloaded") {
		t.Fatalf("full worker dispatch: status %d body %s, want 429 overloaded", resp.StatusCode, buf.String())
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if want := RetryAfterSeconds(maxActiveShards, maxActiveShards); ra != want {
		t.Errorf("Retry-After = %d, want %d", ra, want)
	}
}
