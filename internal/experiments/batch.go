package experiments

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// BatchStats counts batched-sweep activity for observability surfaces
// (`/debug/vars` on the server). All fields are cumulative; a zero
// value is ready to use and safe for concurrent updates.
type BatchStats struct {
	// Batches is the number of batched simulation calls issued (each
	// advances up to BatchSize machine models over one shared trace).
	Batches atomic.Int64
	// CellsBatched is the number of grid cells that ran inside a batch.
	CellsBatched atomic.Int64
	// FallbackSequential is the number of cells that ran the per-cell
	// path with batching enabled, because no other cell shared their
	// measurement.
	FallbackSequential atomic.Int64
}

// BatchSnapshot is a point-in-time copy of BatchStats.
type BatchSnapshot struct {
	Batches            int64
	CellsBatched       int64
	FallbackSequential int64
}

// Snapshot returns the current counter values.
func (s *BatchStats) Snapshot() BatchSnapshot {
	return BatchSnapshot{
		Batches:            s.Batches.Load(),
		CellsBatched:       s.CellsBatched.Load(),
		FallbackSequential: s.FallbackSequential.Load(),
	}
}

// batchOptions configures runGrid's batched execution.
type batchOptions struct {
	// size is the maximum number of machine models simulated per batch
	// unit; ≤ 1 disables batching (pure per-cell execution).
	size int
	// stats, when non-nil, receives batch counters.
	stats *BatchStats
}

// batchGroup is the set of grid cells sharing one measurement: same
// benchmark, size, mode, and thread count — only the machine model
// differs. The group materializes its translated trace once (guarded by
// once) and every chunk simulates against the shared read-only trace.
type batchGroup struct {
	key   core.CacheKey
	cells []int // flat cell indices, in grid order

	once sync.Once
	pt   *translate.ParallelTrace
	err  error
}

// materialize decodes and translates the group's measurement exactly
// once. On an encoded cache the bytes (either XTRP format, detected by
// magic) are bulk-decoded here — batching deliberately trades the
// streaming path's bounded memory for a one-per-group materialized
// trace shared by every lane.
func (g *batchGroup) materialize(cache *core.TraceCache, measure func() (*trace.Trace, error)) (*translate.ParallelTrace, error) {
	g.once.Do(func() {
		if cache.Streams() {
			enc, err := cache.Encoded(g.key, measure)
			if err != nil {
				g.err = err
				return
			}
			tr, err := trace.ReadBinaryAny(bytes.NewReader(enc))
			if err != nil {
				g.err = err
				return
			}
			g.pt, g.err = translate.Translate(tr)
			return
		}
		g.pt, g.err = cache.Translated(g.key, measure)
	})
	return g.pt, g.err
}

// batchUnit is one schedulable work item of a batched grid: either a
// chunk of a multi-cell group (batch lanes) or a singleton fallback.
type batchUnit struct {
	group *batchGroup
	cells []int // flat indices, ≤ batch size of them
}

// runGridBatched is runGrid's batched execution: cells are grouped by
// measurement key, groups are chunked to the batch size, and chunks fan
// out across the worker pool. Each chunk simulates its lanes one after
// another over the group's shared translated trace, reusing one pooled
// arena. Lanes run the same engine as per-cell simulation (without
// fast-forward, which needs a pattern cursor), so the assembled grid
// matches the sequential path exactly at any worker count and batch
// size.
func runGridBatched(ctx context.Context, cache *core.TraceCache, workers int, bo batchOptions, jobs []SweepJob, cells []gridCell, points [][]metrics.Point) error {
	groups := make(map[core.CacheKey]*batchGroup)
	var order []*batchGroup
	for ci, c := range cells {
		job := &jobs[c.job]
		key := cacheKey(job.Name, job.Size, job.Procs[c.pt], core.MeasureOptions{SizeMode: job.Mode})
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{key: key}
			groups[key] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, ci)
	}

	// Units are built in group-first-appearance order with in-group
	// chunks in grid order, so unit indexing — and therefore which error
	// the pool surfaces — is deterministic.
	var units []batchUnit
	for _, g := range order {
		if len(g.cells) == 1 {
			units = append(units, batchUnit{group: g, cells: g.cells})
			continue
		}
		for lo := 0; lo < len(g.cells); lo += bo.size {
			hi := lo + bo.size
			if hi > len(g.cells) {
				hi = len(g.cells)
			}
			units = append(units, batchUnit{group: g, cells: g.cells[lo:hi]})
		}
	}

	return pool.Run(workers, len(units), func(u int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		unit := units[u]
		g := unit.group
		job0 := &jobs[cells[unit.cells[0]].job]
		n := g.key.Threads
		measure := func() (*trace.Trace, error) {
			return core.MeasureContext(ctx, job0.Factory(n), core.MeasureOptions{SizeMode: job0.Mode})
		}

		// Singleton fallback: nothing shares this measurement, so the
		// per-cell path (streaming on an encoded cache) is strictly
		// better — batching it would materialize a trace for one lane.
		if len(g.cells) == 1 {
			if bo.stats != nil {
				bo.stats.FallbackSequential.Add(1)
			}
			return runCellSequential(ctx, cache, jobs, cells, points, unit.cells[0])
		}

		pt, err := g.materialize(cache, measure)
		if err != nil {
			return err
		}
		labels := pprof.Labels(
			"batch_size", strconv.Itoa(len(unit.cells)),
			"grid", g.key.Bench+"/n="+strconv.Itoa(n),
		)
		pprof.Do(ctx, labels, func(ctx context.Context) {
			for _, ci := range unit.cells {
				c := cells[ci]
				var res *sim.Result
				if res, err = sim.Simulate(ctx, nil, pt, jobs[c.job].Cfg); err != nil {
					return
				}
				points[c.job][c.pt] = metrics.Point{Procs: n, Time: res.TotalTime}
			}
		})
		if err != nil {
			return err
		}
		if bo.stats != nil {
			bo.stats.Batches.Add(1)
			bo.stats.CellsBatched.Add(int64(len(unit.cells)))
		}
		return nil
	})
}
