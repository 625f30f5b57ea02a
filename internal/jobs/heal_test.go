package jobs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/store"
	"extrap/internal/trace"
)

// TestStoreHealsUndecodableArtifacts: a checksum-valid artifact that no
// reader can decode, planted in a real store under a trace/v2 address
// and under a pred/v1 address, is replaced by the first cold lookup,
// which re-measures or recomputes it. The second lookup is a store hit
// that runs nothing, and a reopened store serves the new bytes.
func TestStoreHealsUndecodableArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Benchmark: "grid", Size: 16, Iters: 4, Machine: "cm5", Procs: []int{2}}
	b, err := benchmarks.ByName(spec.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	env, err := machine.ByName(spec.Machine)
	if err != nil {
		t.Fatal(err)
	}
	sz := b.DefaultSize()
	sz.N, sz.Iters, sz.Verify = spec.Size, spec.Iters, false
	key := experiments.MeasurementKey(b.Name(), sz, 2, core.MeasureOptions{SizeMode: pcxx.ActualSize})
	traceAddr := key.CanonicalFormat(trace.FormatXTRP2)
	predAddr := core.CanonicalPrediction(key, env.Config)

	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	for _, addr := range []string{traceAddr, predAddr} {
		if err := st.Put(addr, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}

	// trace/v2: two cold memory caches over the store.
	measured := 0
	measure := func() (*trace.Trace, error) {
		measured++
		return core.Measure(b.Factory(sz)(2), key.Opts)
	}
	var encs [2][]byte
	for i := range encs {
		c := core.NewTraceCache(4, 0)
		c.SetBackend(st)
		if encs[i], err = c.Encoded(key, measure); err != nil {
			t.Fatal(err)
		}
	}
	if measured != 1 || !bytes.Equal(encs[0], encs[1]) {
		t.Fatalf("two cold trace lookups measured %d times, want 1 and a store hit", measured)
	}

	// pred/v1: two jobs over the store.
	svc := experiments.NewService(1, 64, 0)
	svc.SetBackend(st)
	m, err := Open(Config{Dir: filepath.Join(dir, "jobs"), Service: svc, Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for round, computed := range []int64{1, 1} {
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := waitStatus(t, m, id, StatusDone)
		if got := m.Stats().CellsComputed; got != computed {
			t.Fatalf("job %d: %d cells computed in all, want %d", round, got, computed)
		}
		if want, err = json.Marshal(cellRecord{Procs: 2, TotalNs: int64(s.Points[0].Time)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().CellsLoaded; got != 1 {
		t.Fatalf("%d cells loaded from the store, want the second job's 1", got)
	}
	m.Close()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(filepath.Join(dir, "store"), 0); err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[string][]byte{traceAddr: encs[0], predAddr: want} {
		if got, ok := st.Get(addr); !ok || !bytes.Equal(got, want) {
			t.Errorf("reopened store serves %q under %.40s…, want the recomputed artifact", got, addr)
		}
	}
}
