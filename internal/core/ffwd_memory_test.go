package core_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
)

// gridEncoded measures grid at the given sweep count and returns its
// XTRP2 encoding, memoized per sweep count across the tests below.
var gridEncoded = func() func(t *testing.T, threads, iters int) []byte {
	var mu sync.Mutex
	memo := map[[2]int][]byte{}
	return func(t *testing.T, threads, iters int) []byte {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		key := [2]int{threads, iters}
		if enc, ok := memo[key]; ok {
			return enc
		}
		f := benchmarks.Grid{}.Factory(benchmarks.Size{N: 16, Iters: iters})
		tr, err := core.Measure(f(threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		memo[key] = buf.Bytes()
		return memo[key]
	}
}()

// treeConfig is a message-passing tree barrier machine: the barrier
// algorithm whose per-barrier state includes n-sized node tables.
func treeConfig() sim.Config {
	cfg := machine.GenericDM().Config
	cfg.Barrier.Algorithm = sim.TreeBarrier
	cfg.Barrier.ByMsgs = true
	cfg.Barrier.MsgSize = 8
	return cfg
}

// bytesPerCall reports the bytes one ExtrapolateEncoded call allocates
// once recycled state is warm — the least over a few calls, since the
// race detector makes sync.Pool drop items at random — and the pattern
// iterations its fast-forward skipped.
func bytesPerCall(t *testing.T, enc []byte, cfg sim.Config) (perCall uint64, skipped uint64) {
	t.Helper()
	ctx := context.Background()
	if _, err := core.ExtrapolateEncoded(ctx, enc, cfg); err != nil {
		t.Fatal(err)
	}
	perCall = ^uint64(0)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		skipBefore := sim.ReadReplayCounters().IterationsSkipped
		runtime.ReadMemStats(&before)
		if _, err := core.ExtrapolateEncoded(ctx, enc, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		skipped = sim.ReadReplayCounters().IterationsSkipped - skipBefore
		perCall = min(perCall, after.TotalAlloc-before.TotalAlloc)
	}
	return perCall, skipped
}

// TestFastForwardMemoryFlatInIterations: a fast-forwarded simulation's
// memory must not grow with the iterations it skips. Grid at 4000
// sweeps allocates at most 1.5× what it does at 400, on a linear-barrier
// machine and on a message-passing tree barrier.
func TestFastForwardMemoryFlatInIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("measures grid at 4000 sweeps")
	}
	const threads = 16
	short := gridEncoded(t, threads, 400)
	long := gridEncoded(t, threads, 4000)
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"linear", machine.CM5().Config},
		{"tree", treeConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shortBytes, shortSkip := bytesPerCall(t, short, tc.cfg)
			longBytes, longSkip := bytesPerCall(t, long, tc.cfg)
			if shortSkip == 0 || longSkip <= shortSkip {
				t.Fatalf("fast-forward skipped %d iterations at 400 sweeps and %d at 4000; the test needs it engaged", shortSkip, longSkip)
			}
			t.Logf("400 sweeps: %d B/call (%d iterations skipped); 4000 sweeps: %d B/call (%d skipped)",
				shortBytes, shortSkip, longBytes, longSkip)
			if 2*longBytes > 3*shortBytes {
				t.Fatalf("4000 sweeps allocate %d B per call, 400 sweeps %d B: memory grows with skipped iterations", longBytes, shortBytes)
			}
		})
	}
}
