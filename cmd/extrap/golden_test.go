package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extrap/internal/compose"
)

// TestExperimentGoldens pins what the extrapolator computes, not just
// that its paths agree: the full experiment suite and the composed-
// workload sweeps (nested.json, plus every compose preset fed in as an
// ad-hoc spec file) must reproduce committed outputs byte for byte. A
// failure means some prediction changed. If the change is deliberate,
// regenerate with EXTRAP_GOLDEN_UPDATE=1 and say why in the change;
// never regenerate to silence an accidental drift.
func TestExperimentGoldens(t *testing.T) {
	nested := filepath.Join("..", "..", "internal", "compose", "testdata", "nested.json")
	cases := []struct {
		golden string
		args   []string
	}{
		{"experiment_all.golden", []string{"all"}},
		{"workload_nested.golden", []string{"-workload", nested}},
	}
	dir := t.TempDir()
	for _, p := range compose.Presets() {
		path := filepath.Join(dir, p.Name()+".json")
		if err := os.WriteFile(path, p.Workload().SpecJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			golden string
			args   []string
		}{"workload_" + p.Name() + ".golden", []string{"-workload", path}})
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, ".golden"), func(t *testing.T) {
			got := runCmd(t, "experiment", c.args...)
			path := filepath.Join("testdata", c.golden)
			if os.Getenv("EXTRAP_GOLDEN_UPDATE") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Skip("golden regenerated")
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with EXTRAP_GOLDEN_UPDATE=1): %v", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("%s drifted at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
				}
			}
		})
	}
}
