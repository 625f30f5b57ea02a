package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/vtime"
)

// machineGrid builds K machine variants of the generic-dm preset —
// the "measure once, ask many what-if questions" shape where batching
// engages: every cell at one ladder point shares a measurement.
func machineGrid(k int) []sim.Config {
	cfgs := make([]sim.Config, k)
	for i := range cfgs {
		cfg := machine.GenericDM().Config
		cfg.Comm.StartupTime = vtime.FromMicros(float64(10 + 20*i))
		cfg.MipsRatio = []float64{0.5, 1.0, 2.0}[i%3]
		cfgs[i] = cfg
	}
	return cfgs
}

func gridJobs(t *testing.T, bench string, cfgs []sim.Config, procs []int) []SweepJob {
	t.Helper()
	b := mustBench(t, bench)
	sz := Options{Quick: true}.size(b)
	jobs := make([]SweepJob, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = SweepJob{
			Name:    b.Name(),
			Size:    sz,
			Factory: b.Factory(sz),
			Mode:    pcxx.ActualSize,
			Cfg:     cfg,
			Procs:   procs,
		}
	}
	return jobs
}

// TestBatchedGridByteIdentical: the batched grid must equal the
// per-cell grid exactly — every point, both cache modes, at several
// worker × batch combinations. Run under -race this also proves the
// shared-translated-trace batch path is data-race-free.
func TestBatchedGridByteIdentical(t *testing.T) {
	cfgs := machineGrid(5)
	procs := []int{1, 2, 4}
	for _, streaming := range []bool{false, true} {
		name := "in-memory"
		if streaming {
			name = "streaming"
		}
		t.Run(name, func(t *testing.T) {
			baseline := runGridMode(t, streaming, cfgs, procs, 1, 1, nil)
			for _, tc := range []struct{ workers, batch int }{
				{1, 2}, {1, 8}, {4, 2}, {4, 8}, {4, 64},
			} {
				var stats BatchStats
				got := runGridMode(t, streaming, cfgs, procs, tc.workers, tc.batch, &stats)
				if !reflect.DeepEqual(baseline, got) {
					t.Errorf("workers=%d batch=%d: output differs from per-cell baseline\nwant %v\ngot  %v",
						tc.workers, tc.batch, baseline, got)
				}
				snap := stats.Snapshot()
				if snap.CellsBatched == 0 {
					t.Errorf("workers=%d batch=%d: no cells batched (batches=%d fallback=%d)",
						tc.workers, tc.batch, snap.Batches, snap.FallbackSequential)
				}
				if total := snap.CellsBatched + snap.FallbackSequential; total != int64(len(cfgs)*len(procs)) {
					t.Errorf("workers=%d batch=%d: counters cover %d cells, want %d",
						tc.workers, tc.batch, total, len(cfgs)*len(procs))
				}
			}
		})
	}
}

func runGridMode(t *testing.T, streaming bool, cfgs []sim.Config, procs []int, workers, batch int, stats *BatchStats) [][]metrics.Point {
	t.Helper()
	cache := core.NewBoundedTraceCache(64)
	if streaming {
		cache = core.NewEncodedTraceCache(64, 0)
	}
	points, err := runGrid(context.Background(), cache, workers,
		batchOptions{size: batch, stats: stats}, gridJobs(t, "cyclic", cfgs, procs))
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestBatchSingletonFallback: a grid whose cells share no measurement
// (one config, distinct ladder points) must run every cell on the
// per-cell path and count the fallbacks.
func TestBatchSingletonFallback(t *testing.T) {
	var stats BatchStats
	jobs := gridJobs(t, "cyclic", machineGrid(1), []int{1, 2, 4})
	points, err := runGrid(context.Background(), core.NewEncodedTraceCache(64, 0), 1,
		batchOptions{size: 8, stats: &stats}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points[0]) != 3 {
		t.Fatalf("got %d points", len(points[0]))
	}
	snap := stats.Snapshot()
	if snap.FallbackSequential != 3 || snap.Batches != 0 || snap.CellsBatched != 0 {
		t.Errorf("counters = %+v, want 3 fallbacks and no batches", snap)
	}
}

// TestPredictBatchMatchesPredict: PredictBatch must equal, field for
// field, both the in-memory pipeline oracle (core.Extrapolate on the
// same measurement) and per-config Predict (streaming, fast-forwarding).
func TestPredictBatchMatchesPredict(t *testing.T) {
	cfgs := machineGrid(4)
	b := mustBench(t, "cyclic")
	sz := Options{Quick: true}.size(b)
	ctx := context.Background()
	svc := NewService(1, 64, 0)
	batch, err := svc.PredictBatch(ctx, b, sz, 4, pcxx.ActualSize, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("%d predictions for %d configs", len(batch), len(cfgs))
	}
	tr, err := core.Measure(b.Factory(sz)(4), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []struct {
		name    string
		predict func(sim.Config) (*core.Prediction, error)
	}{
		{"in-memory", func(cfg sim.Config) (*core.Prediction, error) {
			out, err := core.Extrapolate(tr, cfg)
			if err != nil {
				return nil, err
			}
			return &core.Prediction{Measured1P: out.Measurement.Duration(), Ideal: out.Parallel.Duration(), Result: out.Result}, nil
		}},
		{"streaming", func(cfg sim.Config) (*core.Prediction, error) {
			return svc.Predict(ctx, b, sz, 4, pcxx.ActualSize, cfg)
		}},
	} {
		t.Run(ref.name, func(t *testing.T) {
			for i, cfg := range cfgs {
				want, err := ref.predict(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, batch[i]) {
					t.Errorf("lane %d differs:\nreference    %+v / %+v\npredictBatch %+v / %+v",
						i, want, want.Result, batch[i], batch[i].Result)
				}
			}
		})
	}
}

// TestExperimentOutputUnchangedByBatch: a full registered experiment
// must render byte-identically with batching on, at any worker count.
func TestExperimentOutputUnchangedByBatch(t *testing.T) {
	procs := []int{1, 2, 4, 8}
	baseline := renderExperiment(t, "fig7", Options{Quick: true, Procs: procs, Workers: 1})
	for _, tc := range []struct{ workers, batch int }{{1, 8}, {4, 8}} {
		var stats BatchStats
		got := renderExperiment(t, "fig7", Options{
			Quick: true, Procs: procs,
			Workers: tc.workers, BatchSize: tc.batch, BatchStats: &stats,
		})
		if !bytes.Equal(baseline, got) {
			t.Errorf("workers=%d batch=%d: fig7 output differs:\n--- per-cell ---\n%s\n--- batched ---\n%s",
				tc.workers, tc.batch, baseline, got)
		}
		if stats.Snapshot().CellsBatched == 0 {
			t.Errorf("workers=%d batch=%d: fig7 batched no cells", tc.workers, tc.batch)
		}
	}
}
