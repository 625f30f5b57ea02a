package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPaperClaims asserts the paper's headline shape claims on the
// committed full-size `experiment all` output. TestExperimentGoldens
// pins the bytes; this test pins what they say, so a golden regenerated
// with EXTRAP_GOLDEN_UPDATE=1 cannot silently break a claim.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "experiment_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)

	t.Run("fig4", func(t *testing.T) {
		speedup := map[string]map[int]float64{}
		for _, row := range goldenTable(t, golden, "Figure 4 data") {
			b := row["benchmark"]
			if speedup[b] == nil {
				speedup[b] = map[int]float64{}
			}
			speedup[b][int(cellFloat(t, row, "procs"))] = cellFloat(t, row, "speedup")
		}
		for _, p := range []int{2, 4, 8, 16, 32} {
			embar, ok := speedup["embar"][p]
			if !ok {
				t.Fatalf("no embar row at %d procs", p)
			}
			for b, s := range speedup {
				if s[p] > embar {
					t.Errorf("%d procs: %s speedup %.3f beats embar's %.3f", p, b, s[p], embar)
				}
			}
		}
		if s := speedup["embar"][32]; math.Abs(s-24.5) >= 0.05 {
			t.Errorf("embar speedup at 32 procs = %.3f, want 24.5", s)
		}
		for _, b := range []string{"grid", "mgrid"} {
			if s4, s8 := speedup[b][4], speedup[b][8]; s4 == 0 || s8 > s4 {
				t.Errorf("%s: speedup %.3f at 8 procs beats %.3f at 4", b, s8, s4)
			}
		}
	})

	t.Run("fig7", func(t *testing.T) {
		best := map[string]string{}
		for _, row := range goldenTable(t, golden, "Minimum-time processor count") {
			best[row["MipsRatio"]+" "+row["CommStartupTime"]] = row["best procs"]
		}
		for key, want := range map[string]string{"1.00 5.000µs": "16", "0.25 5.000µs": "4"} {
			if best[key] != want {
				t.Errorf("MipsRatio, start-up %s: best procs %q, want %s", key, best[key], want)
			}
		}
	})

	t.Run("fig8-grid", func(t *testing.T) {
		rows := byProcs(t, goldenTable(t, golden, "Figure 8: grid execution time by policy"))
		for _, p := range []int{4, 8, 16, 32} {
			intr, noint := cellFloat(t, rows[p], "interrupt"), cellFloat(t, rows[p], "no-interrupt/poll")
			for col := range rows[p] {
				if col == "procs" {
					continue
				}
				v := cellFloat(t, rows[p], col)
				if p <= 16 && v < intr {
					t.Errorf("%d procs: %s (%.3f) beats interrupt (%.3f)", p, col, v, intr)
				}
				if v > noint {
					t.Errorf("%d procs: %s (%.3f) is slower than no-interrupt (%.3f)", p, col, v, noint)
				}
			}
		}
	})

	t.Run("fig8-cyclic", func(t *testing.T) {
		rows := byProcs(t, goldenTable(t, golden, "Figure 8: cyclic execution time by policy"))
		gap := func(p int) float64 {
			return cellFloat(t, rows[p], "no-interrupt/poll")/cellFloat(t, rows[p], "interrupt") - 1
		}
		if g := gap(2); math.Abs(g-0.18) >= 0.005 {
			t.Errorf("2 procs: no-interrupt is %.1f%% slower than interrupt, want 18%%", 100*g)
		}
		for _, p := range []int{16, 32} {
			if g := gap(p); g > 0.02 {
				t.Errorf("%d procs: no-interrupt is %.1f%% slower than interrupt, want ≤ 2%%", p, 100*g)
			}
		}
	})

	t.Run("fig9", func(t *testing.T) {
		rows := goldenTable(t, golden, "Ranking agreement per processor count")
		if len(rows) != 6 {
			t.Fatalf("%d ranking rows, want one per proc count 1..32", len(rows))
		}
		misses := 0
		for _, row := range rows {
			if row["match"] == "no" {
				misses++
			}
			if pen := cellFloat(t, row, "penalty vs optimum"); pen > 7 {
				t.Errorf("%s procs: penalty %.1f%% vs optimum, want ≤ 7%%", row["procs"], pen)
			}
			if rho := cellFloat(t, row, "rank corr"); rho < 0.75 {
				t.Errorf("%s procs: rank correlation %.2f, want ≥ 0.75", row["procs"], rho)
			}
		}
		if misses > 1 {
			t.Errorf("%d best-choice mismatches, want at most 1", misses)
		}
	})

	t.Run("ablation-overhead", func(t *testing.T) {
		rows := goldenTable(t, golden, "Grid: per-event instrumentation overhead vs prediction")
		if len(rows) == 0 {
			t.Fatal("no overhead rows")
		}
		for _, row := range rows {
			if d := row["prediction drift"]; d != "+0.00%" {
				t.Errorf("overhead %s: prediction drift %s, want +0.00%%", row["overhead/event"], d)
			}
		}
	})
}

// colSep separates the columns of a rendered report table: cells never
// contain two spaces in a row.
var colSep = regexp.MustCompile(` {2,}`)

// goldenTable returns the rows of the table headed "== title ==" in
// rendered experiment output, each row keyed by the header's column
// names. The table ends at the first blank or note line.
func goldenTable(t *testing.T, golden, title string) []map[string]string {
	t.Helper()
	_, body, ok := strings.Cut(golden, "\n== "+title+" ==\n")
	if !ok {
		t.Fatalf("golden has no table %q", title)
	}
	lines := strings.Split(body, "\n")
	header := colSep.Split(strings.TrimSpace(lines[0]), -1)
	var rows []map[string]string
	for _, line := range lines[2:] { // skip the header and its dashes
		if line == "" || strings.HasPrefix(line, "note:") {
			break
		}
		cells := colSep.Split(strings.TrimSpace(line), -1)
		if len(cells) != len(header) {
			t.Fatalf("%s: row %q has %d cells for %d columns", title, line, len(cells), len(header))
		}
		row := make(map[string]string, len(header))
		for i, h := range header {
			row[h] = cells[i]
		}
		rows = append(rows, row)
	}
	return rows
}

// byProcs indexes table rows by their procs column.
func byProcs(t *testing.T, rows []map[string]string) map[int]map[string]string {
	t.Helper()
	out := make(map[int]map[string]string, len(rows))
	for _, row := range rows {
		out[int(cellFloat(t, row, "procs"))] = row
	}
	return out
}

// cellFloat parses a numeric cell, ignoring a trailing percent sign; a
// missing row or column fails the test.
func cellFloat(t *testing.T, row map[string]string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
	if err != nil {
		t.Fatalf("column %q: %v", col, err)
	}
	return v
}
