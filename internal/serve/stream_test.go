package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
	"unsafe"

	"extrap/internal/request"
	"extrap/internal/trace"
)

// TestTraceBudgetReturns413: a server with a tiny per-trace budget must
// reject compute requests with 413 and the typed trace_too_large code —
// the untrusted-parameter path cannot force an over-budget measurement
// to stay resident.
func TestTraceBudgetReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTraceBytes: 64})

	status, body := post(t, ts.URL+"/v1/extrapolate", extrapBody("grid", 4, "cm5"))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", status, body)
	}
	if !strings.Contains(body, `"code":"trace_too_large"`) {
		t.Errorf("413 body missing typed code: %s", body)
	}

	// Sweeps measure through the same budgeted cache.
	status, body = post(t, ts.URL+"/v1/sweep",
		`{"benchmark":"cyclic","size":64,"iters":4,"machine":"cm5","procs":[1,2]}`)
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(body, "trace_too_large") {
		t.Errorf("sweep: status %d body %s, want 413 trace_too_large", status, body)
	}

	// The rejection is deterministic, so it is memoized: repeating the
	// request must not re-run the measurement.
	_, before := get(t, ts.URL+"/debug/vars")
	post(t, ts.URL+"/v1/extrapolate", extrapBody("grid", 4, "cm5"))
	_, after := get(t, ts.URL+"/debug/vars")
	if missField(t, before) != missField(t, after) {
		t.Errorf("repeated rejected request re-measured:\n%s\nvs\n%s", before, after)
	}
}

// missField extracts the cache_misses counter from a /debug/vars body.
func missField(t *testing.T, varsBody string) string {
	t.Helper()
	i := strings.Index(varsBody, `"cache_misses"`)
	if i < 0 {
		t.Fatalf("no cache_misses in %s", varsBody)
	}
	end := strings.IndexByte(varsBody[i:], ',')
	if end < 0 {
		end = len(varsBody) - i
	}
	return varsBody[i : i+end]
}

// TestOversizedComposedTraceReturns413: a composed workload within the
// work budget whose trace would take gigabytes (a 256-thread tree
// reduction repeated 43,690 times: 234.8M events, 9.4 GB) is refused
// with 413 trace_too_large before its events are allocated, and the
// refusal is memoized. The ceiling is the memory the work budget lets a
// registry kernel allocate: MaxWorkUnits float64 elements.
func TestOversizedComposedTraceReturns413(t *testing.T) {
	if want := int64(request.MaxWorkUnits) * 8 / int64(unsafe.Sizeof(trace.Event{})); trace.MaxTraceEvents != want {
		t.Fatalf("trace.MaxTraceEvents = %d, want %d", trace.MaxTraceEvents, want)
	}
	_, ts := newTestServer(t, Config{})
	req := `{"workload":{"root":{"kind":"reduction","op":"tree"}},"iters":43690,"threads":256,"machine":"ideal"}`
	start := time.Now()
	status, body := post(t, ts.URL+"/v1/extrapolate", req)
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(body, `"code":"trace_too_large"`) {
		t.Fatalf("status %d body %s, want 413 trace_too_large", status, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("refusal took %v", took)
	}
	_, before := get(t, ts.URL+"/debug/vars")
	post(t, ts.URL+"/v1/extrapolate", req)
	_, after := get(t, ts.URL+"/debug/vars")
	if missField(t, before) != missField(t, after) {
		t.Errorf("repeated refused request re-measured:\n%s\nvs\n%s", before, after)
	}
}

// TestTraceTooLargeErrorMapping: the pipeline error mapper recognizes
// wrapped budget errors.
func TestTraceTooLargeErrorMapping(t *testing.T) {
	e := pipelineError(fmt.Errorf("measuring grid: %w", trace.ErrTraceTooLarge))
	if e.Status != http.StatusRequestEntityTooLarge || e.Code != "trace_too_large" {
		t.Errorf("pipelineError = %d %q, want 413 trace_too_large", e.Status, e.Code)
	}
}

// TestDefaultBudgetAdmitsNormalTraces: the default 256 MiB budget must
// not reject ordinary requests, and disabling the budget (< 0) works.
func TestDefaultBudgetAdmitsNormalTraces(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxTraceBytes: -1}} {
		_, ts := newTestServer(t, cfg)
		status, body := post(t, ts.URL+"/v1/extrapolate", extrapBody("grid", 4, "cm5"))
		if status != http.StatusOK {
			t.Errorf("MaxTraceBytes=%d: status %d body %s, want 200", cfg.MaxTraceBytes, status, body)
		}
	}
}
