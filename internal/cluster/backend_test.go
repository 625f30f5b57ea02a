package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/pcxx"
	"extrap/internal/store"
	"extrap/internal/trace"
)

// wrongThreadsArtifact is 45 bytes of XTRP2 declaring 16,384 threads and
// 16,384 events: one one-row pattern (a thread start) repeated 16,384
// times. The header rule admits it, it compiles, and translating it
// would size per-thread state for 16,384 threads.
const wrongThreadsArtifact = "XTRP2" + "\x00\x40\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" +
	"\x00\x40\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00" +
	"\x01" + "\x01\x00\x00\x00\x00\x00" + "\x01\x00" + "\x80\x80\x01"

// TestWrongThreadCountArtifactIsAMiss: an artifact whose header thread
// count is not its key's, planted under a 4-thread grid key in a real
// store or served by a peer behind it, is a miss. The first lookup
// re-measures, allocating under 1 MiB before it does, and supersedes the
// artifact; a second cache over the same tiers then hits the store.
func TestWrongThreadCountArtifactIsAMiss(t *testing.T) {
	ct, err := trace.CompileBinary([]byte(wrongThreadsArtifact))
	if err != nil {
		t.Fatalf("the planted artifact must compile: %v", err)
	}
	if n := ct.Header().NumThreads; n != 16384 {
		t.Fatalf("planted artifact declares %d threads", n)
	}
	ct.Release()

	grid, err := benchmarks.ByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	sz := benchmarks.Size{N: 16, Iters: 2}
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	key := experiments.MeasurementKey("grid", sz, 4, mopts)
	format := trace.FormatXTRP2

	tiers := map[string]func(st *store.Store) core.TraceBackend{
		"store": func(st *store.Store) core.TraceBackend {
			st.PutTrace(key, format, []byte(wrongThreadsArtifact))
			return st
		},
		"peer": func(st *store.Store) core.TraceBackend {
			h := sha256.Sum256([]byte(key.CanonicalFormat(format)))
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/internal/artifacts/{keyhash}", ArtifactHandler(mapSource{h: []byte(wrongThreadsArtifact)}))
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)
			return &ChainBackend{Local: st, Remote: NewRemoteBackend(ts.URL, 1<<20)}
		},
	}
	for name, plant := range tiers {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			backend := plant(st)

			var before, atMeasure runtime.MemStats
			measures := 0
			measure := func() (*trace.Trace, error) {
				if measures++; measures == 1 {
					runtime.ReadMemStats(&atMeasure)
				}
				return core.MeasureContext(context.Background(), grid.Factory(sz)(4), mopts)
			}
			c := core.NewTraceCache(4, 0)
			c.SetBackend(backend)
			runtime.GC()
			runtime.ReadMemStats(&before)
			enc, err := c.Encoded(key, measure)
			if err != nil {
				t.Fatal(err)
			}
			if measures != 1 {
				t.Fatalf("first lookup measured %d times, want 1", measures)
			}
			if grown := atMeasure.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("allocated %d bytes before re-measuring", grown)
			}
			ct, err := trace.CompileBinary(enc)
			if err != nil {
				t.Fatal(err)
			}
			threads := ct.Header().NumThreads
			ct.Release()
			if threads != 4 {
				t.Fatalf("served a %d-thread trace for a 4-thread key", threads)
			}

			again := core.NewTraceCache(4, 0)
			again.SetBackend(backend)
			got, err := again.Encoded(key, func() (*trace.Trace, error) {
				t.Error("second lookup re-measured")
				return measure()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, enc) {
				t.Error("second lookup served other bytes than the re-measurement")
			}
			if stored, ok := st.GetTrace(key, format); !ok || !bytes.Equal(stored, enc) {
				t.Error("the store does not hold the re-measurement")
			}
		})
	}
}
