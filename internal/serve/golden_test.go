package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestSweepGoldens pins the exact bytes /v1/sweep serves for one exact
// multi-machine sweep and one fitted sweep, so a prediction drift that
// hits every serving path alike (per-cell, batched, sharded) still
// fails. Regenerate with EXTRAP_GOLDEN_UPDATE=1 only for an intended
// change of answers.
func TestSweepGoldens(t *testing.T) {
	cases := []struct{ golden, body string }{
		{"sweep_exact_multi.golden",
			`{"benchmark":"grid","size":64,"iters":4,"machines":["cm5","generic-dm","shared-mem"],"procs":[1,2,4,8,16]}`},
		{"sweep_fitted.golden", fittedSweepBody(`"machine":"cm5"`, 32)},
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			status, got := post(t, ts.URL+"/v1/sweep", c.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			path := filepath.Join("testdata", c.golden)
			if os.Getenv("EXTRAP_GOLDEN_UPDATE") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Skip("golden regenerated")
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with EXTRAP_GOLDEN_UPDATE=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}
