package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/pcxx"
	"extrap/internal/store"
	"extrap/internal/trace"
)

// TestParseExperimentFlags: CLI flags must land in the engine Options
// verbatim, with the id and output dirs split out.
func TestParseExperimentFlags(t *testing.T) {
	opts, id, _, csvDir, svgDir, storeDir, err := parseExperimentFlags(
		[]string{"-quick", "-workers", "3", "-csv", "/tmp/c", "-svg", "/tmp/s", "-store", "/tmp/st", "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Quick || opts.Workers != 3 {
		t.Errorf("Options = %+v, want Quick=true Workers=3", opts)
	}
	if id != "fig4" || csvDir != "/tmp/c" || svgDir != "/tmp/s" || storeDir != "/tmp/st" {
		t.Errorf("id=%q csv=%q svg=%q store=%q", id, csvDir, svgDir, storeDir)
	}

	opts, id, _, _, _, storeDir, err = parseExperimentFlags([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Quick || opts.Workers != 0 || id != "all" || storeDir != "" {
		t.Errorf("defaults: opts=%+v id=%q store=%q", opts, id, storeDir)
	}
}

// TestExperimentStore: `experiment -store D` writes each distinct
// measurement through to D as one XTRP2 trace, and a second run over D
// reads every trace back instead of re-measuring: it prints the same
// bytes, encodes nothing (the runner encodes only a fresh measurement,
// to write it through), and appends nothing to the store.
func TestExperimentStore(t *testing.T) {
	dir := t.TempDir()
	// fig7's -quick measurements: mgrid at its quick size over the quick
	// ladder, attributing transfers by actual size.
	var keys []core.CacheKey
	for _, n := range []int{1, 2, 4, 8} {
		keys = append(keys, experiments.MeasurementKey("mgrid", benchmarks.Size{N: 32, Iters: 2}, n,
			core.MeasureOptions{SizeMode: pcxx.ActualSize}))
	}
	run := func() (out string, encodes uint64, objects, segBytes int64) {
		before := trace.ReadCompressionCounters().EncodedTraces
		out = runCmd(t, "experiment", "-quick", "-store", dir, "fig7")
		encodes = trace.ReadCompressionCounters().EncodedTraces - before

		segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range segs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			segBytes += fi.Size()
		}
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, k := range keys {
			enc, ok := st.GetTrace(k, trace.FormatXTRP2)
			if !ok {
				t.Fatalf("no stored trace for %+v", k)
			}
			ct, err := trace.CompileBinary(enc)
			if err != nil {
				t.Fatalf("stored trace for %+v is not XTRP2: %v", k, err)
			}
			ct.Release()
		}
		return out, encodes, st.Stats().Objects, segBytes
	}

	first, encodes, objects, segBytes := run()
	if encodes != uint64(len(keys)) || objects != int64(len(keys)) {
		t.Errorf("first run: %d encodes, %d stored objects; want %d of each (one per measurement)",
			encodes, objects, len(keys))
	}
	second, encodes2, objects2, segBytes2 := run()
	if second != first {
		t.Error("second run over the store printed different output")
	}
	if encodes2 != 0 {
		t.Errorf("second run encoded %d traces, want 0 (every trace read back from the store)", encodes2)
	}
	if objects2 != objects || segBytes2 != segBytes {
		t.Errorf("second run changed the store: %d objects in %d segment bytes, then %d in %d",
			objects, segBytes, objects2, segBytes2)
	}
}

// TestExperimentBadWorkers: nonsense -workers values are rejected before
// any experiment runs.
func TestExperimentBadWorkers(t *testing.T) {
	var buf bytes.Buffer
	err := dispatch("experiment", []string{"-workers", "-3", "fig4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative -workers: err = %v", err)
	}
	if err := dispatch("experiment", []string{"-workers", "abc", "fig4"}, &buf); err == nil {
		t.Error("non-numeric -workers accepted")
	}
	if err := dispatch("experiment", []string{"-workers", "2"}, &buf); err == nil {
		t.Error("missing experiment id accepted")
	}
}

// TestServeFlagValidation: serve's flag plumbing rejects unusable
// configurations without binding a socket.
func TestServeFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		name string
		args []string
	}{
		{"zero max-inflight", []string{"-max-inflight", "0", "-addr", "127.0.0.1:0"}},
		{"negative workers", []string{"-workers", "-1", "-addr", "127.0.0.1:0"}},
		{"zero timeout", []string{"-timeout", "0s", "-addr", "127.0.0.1:0"}},
		{"non-numeric max-inflight", []string{"-max-inflight", "abc"}},
		{"unparseable port", []string{"-addr", "127.0.0.1:99999999"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := dispatch("serve", tc.args, &buf); err == nil {
				t.Errorf("serve %v accepted", tc.args)
			}
		})
	}
}
