package extrap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at full scale. Run all of them with
//
//	go test -bench=. -benchmem
//
// and print the regenerated rows/series with -v (each benchmark logs its
// rendered output once). Reported custom metrics summarize the headline
// result of each experiment so regressions in *shape* — not just speed —
// are visible in benchmark diffs.

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/profile"
	"extrap/internal/sim"
	"extrap/internal/store"
	"extrap/internal/timeline"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// benchExperiment runs one full-scale experiment per iteration and logs
// its rendered tables and figures once.
func benchExperiment(b *testing.B, id string) *experiments.Output {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out *experiments.Output
	for i := 0; i < b.N; i++ {
		out, err = e.Run(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	out.Render(&buf)
	b.Log("\n" + buf.String())
	return out
}

// seriesValue digs a named series' value at an x position out of a figure.
func seriesValue(out *experiments.Output, figure int, series string, xIdx int) float64 {
	f := out.Figures[figure]
	for _, s := range f.Series {
		if s.Name == series && xIdx < len(s.Values) {
			return s.Values[xIdx]
		}
	}
	return 0
}

// BenchmarkFig4SpeedupCurves regenerates Figure 4: speedup curves for the
// whole benchmark suite under the distributed-memory parameter set.
func BenchmarkFig4SpeedupCurves(b *testing.B) {
	out := benchExperiment(b, "fig4")
	b.ReportMetric(seriesValue(out, 0, "embar", 5), "embar-speedup-32p")
	b.ReportMetric(seriesValue(out, 0, "grid", 5), "grid-speedup-32p")
}

// BenchmarkFig5GridExtrapolations regenerates Figure 5: Grid under the
// five environments of the transfer-size investigation.
func BenchmarkFig5GridExtrapolations(b *testing.B) {
	out := benchExperiment(b, "fig5")
	b.ReportMetric(seriesValue(out, 1, "dm-20MB/s (estimate)", 5), "estimate-speedup-32p")
	b.ReportMetric(seriesValue(out, 1, "dm-20MB/s (actual size)", 5), "actual-speedup-32p")
	b.ReportMetric(seriesValue(out, 1, "ideal", 5), "ideal-speedup-32p")
}

// BenchmarkFig6MipsRatio regenerates Figure 6: processor-speed
// extrapolation across four benchmarks.
func BenchmarkFig6MipsRatio(b *testing.B) {
	out := benchExperiment(b, "fig6")
	// Embar times scale ~2× with MipsRatio 2.0 vs 1.0 at every point.
	slow := seriesValue(out, 0, "MipsRatio=2.0", 5)
	base := seriesValue(out, 0, "MipsRatio=1.0", 5)
	if base > 0 {
		b.ReportMetric(slow/base, "embar-time-ratio-2.0-vs-1.0")
	}
}

// BenchmarkFig7MgridStartup regenerates Figure 7: MipsRatio ×
// CommStartupTime on Mgrid, tracking the minimum-time processor count.
func BenchmarkFig7MgridStartup(b *testing.B) {
	out := benchExperiment(b, "fig7")
	for _, row := range out.Tables[0].Rows {
		if len(row) >= 3 {
			if v, err := strconv.Atoi(row[2]); err == nil && row[0] == "1.00" && strings.HasPrefix(row[1], "5.000") {
				b.ReportMetric(float64(v), "best-procs-ratio1-startup5us")
			}
		}
	}
}

// BenchmarkFig8ServicePolicies regenerates Figure 8: remote request
// service policies on Cyclic and Grid.
func BenchmarkFig8ServicePolicies(b *testing.B) {
	out := benchExperiment(b, "fig8")
	ni := seriesValue(out, 1, "no-interrupt/poll", 3)
	in := seriesValue(out, 1, "interrupt", 3)
	if in > 0 {
		b.ReportMetric(ni/in, "grid-nointerrupt-vs-interrupt-8p")
	}
}

// BenchmarkFig9MatmulValidation regenerates Figure 9: Matmul predicted
// (ExtraP with Table 3 parameters) vs actual (direct CM-5 model), with
// the ranking-agreement analysis.
func BenchmarkFig9MatmulValidation(b *testing.B) {
	out := benchExperiment(b, "fig9")
	agree := 0.0
	for _, tab := range out.Tables {
		if strings.Contains(tab.Title, "Ranking") {
			for _, row := range tab.Rows {
				if row[3] == "yes" || row[3] == "tie" {
					agree++
				}
			}
		}
	}
	b.ReportMetric(agree, "best-choice-agreements")
}

// BenchmarkTable1BarrierParams regenerates Table 1 and its sensitivity
// sweep.
func BenchmarkTable1BarrierParams(b *testing.B) {
	benchExperiment(b, "table1")
}

// BenchmarkTable2Suite regenerates Table 2: the benchmark inventory with
// verification.
func BenchmarkTable2Suite(b *testing.B) {
	out := benchExperiment(b, "table2")
	verified := 0.0
	for _, row := range out.Tables[0].Rows {
		if row[len(row)-1] == "yes" {
			verified++
		}
	}
	b.ReportMetric(verified, "verified-benchmarks")
}

// BenchmarkTable3CM5Params regenerates Table 3: the CM-5 parameter
// derivation (MFLOPS microbenchmark and parameter set).
func BenchmarkTable3CM5Params(b *testing.B) {
	benchExperiment(b, "table3")
}

// BenchmarkAblationBarrierAlgorithms compares the paper's linear barrier
// against tree and hardware alternatives.
func BenchmarkAblationBarrierAlgorithms(b *testing.B) {
	benchExperiment(b, "ablation-barrier")
}

// BenchmarkAblationContention toggles the analytical contention model.
func BenchmarkAblationContention(b *testing.B) {
	benchExperiment(b, "ablation-contention")
}

// BenchmarkAblationMultithread exercises the n-threads-on-m-processors
// extension.
func BenchmarkAblationMultithread(b *testing.B) {
	benchExperiment(b, "ablation-multithread")
}

// --- component micro-benchmarks ---------------------------------------------

// measureGrid produces a mid-size Grid trace for the pipeline micro-
// benchmarks.
func measureGrid(b *testing.B, threads int) *Trace {
	b.Helper()
	g, err := benchmarks.ByName("grid")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.Measure(g.Factory(benchmarks.Size{N: 32, Iters: 60})(threads), core.MeasureOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkMeasurement times the instrumented 1-processor run itself.
func BenchmarkMeasurement(b *testing.B) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		b.Fatal(err)
	}
	f := g.Factory(benchmarks.Size{N: 32, Iters: 60})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Measure(f(16), core.MeasureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// measurementSuiteSizes is one mid-range size per sweep-cold kernel, the
// middle of the (size, iters) range the end-to-end sweep-cold workload
// draws from, followed by the three compose presets at their default
// sizes, the composed programs compose-cold measures.
var measurementSuiteSizes = []struct {
	name string
	size benchmarks.Size
}{
	{"embar", benchmarks.Size{N: 15}},
	{"cyclic", benchmarks.Size{N: 636, Iters: 28}},
	{"sparse", benchmarks.Size{N: 1530, Iters: 1}},
	{"grid", benchmarks.Size{N: 41, Iters: 33}},
	{"mgrid", benchmarks.Size{N: 48, Iters: 2}},
	{"poisson", benchmarks.Size{N: 56}},
	{"sort", benchmarks.Size{N: 16330}},
	{"pipeline8", benchmarks.Size{N: 32, Iters: 2}},
	{"farm-stencil", benchmarks.Size{N: 16, Iters: 1}},
	{"bsp-reduce", benchmarks.Size{N: 32, Iters: 1}},
}

// BenchmarkMeasurementSuite times what a cold sweep measures: one
// operation is the 1-processor measurement of a program at every thread
// count of the ladder (1…32), each built from its own program factory as
// the server builds every cell's.
func BenchmarkMeasurementSuite(b *testing.B) {
	for _, k := range measurementSuiteSizes {
		b.Run(k.name, func(b *testing.B) {
			bm, err := benchmarks.ByName(k.name)
			if err != nil {
				b.Fatal(err)
			}
			var events int
			for i := 0; i < b.N; i++ {
				events = 0
				for _, threads := range core.DefaultProcCounts() {
					tr, err := core.Measure(bm.Factory(k.size)(threads), core.MeasureOptions{})
					if err != nil {
						b.Fatal(err)
					}
					events += len(tr.Events)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}

// BenchmarkTranslation times trace translation on a Grid trace.
func BenchmarkTranslation(b *testing.B) {
	tr := measureGrid(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events))/1000, "kevents")
}

// BenchmarkSimulation times the trace-driven simulation on a Grid trace.
func BenchmarkSimulation(b *testing.B) {
	tr := measureGrid(b, 16)
	pt, err := translate.Translate(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.GenericDM().Config
	// One untimed run fills the simulator's arena pool, so allocs/op
	// counts a warm run at every b.N.
	if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pt.Events())/1000, "kevents")
}

// BenchmarkSimulationWide times the simulation at the largest thread
// count a request may ask for: mgrid at 256 threads on generic-dm,
// replayed from a materialized translation. Hundreds of threads keep
// hundreds of events pending, the future event list's worst case.
func BenchmarkSimulationWide(b *testing.B) {
	g, err := benchmarks.ByName("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.Measure(g.Factory(g.DefaultSize())(256), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.GenericDM().Config
	// One untimed run fills the simulator's arena pool, so allocs/op
	// counts a warm run at every b.N.
	if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pt.Events())/1000, "kevents")
}

// sweepBatchEnvs builds the machine-parameter what-if grid for
// BenchmarkSweepBatch: 24 GenericDM variants on one processor with the
// model barrier, varying MIPS ratio × barrier cost. Every cell shares
// one 16-thread measurement, so a warm sweep measures nothing and each
// cell decodes, translates and simulates that shared trace on its own.
func sweepBatchEnvs() []machine.Env {
	base := machine.GenericDM()
	base.Config.Procs = 1
	base.Config.Barrier.Algorithm = sim.LinearBarrier
	base.Config.Barrier.ByMsgs = false
	var envs []machine.Env
	for _, mips := range []float64{0.5, 1, 2, 4} {
		for _, bt := range []vtime.Time{5, 10, 25, 50, 100, 200} {
			env := base
			env.Config.MipsRatio = mips
			env.Config.Barrier.ModelTime = bt * vtime.Microsecond
			envs = append(envs, env)
		}
	}
	return envs
}

// BenchmarkSweepBatch measures warm sweep throughput over the 24-cell
// machine-parameter grid on the streaming service: one ladder point at
// 16 threads, run by one RunPoint call over every machine. The arms sit
// on both sides of fast-forward: grid (the "sequential" arm, N=32 for
// 60 sweeps) is loop-heavy, so each cell skips its steady sweeps;
// cyclic and pipeline8 (default sizes) are loop-poor, so each cell
// replays nearly every event and most of its time goes to re-decoding
// and re-translating a trace that does not depend on the machine.
func BenchmarkSweepBatch(b *testing.B) {
	for _, bc := range []struct {
		name, kernel string
		size         benchmarks.Size
	}{
		{"sequential", "grid", benchmarks.Size{N: 32, Iters: 60}},
		{"cyclic", "cyclic", benchmarks.Size{}},
		{"pipeline8", "pipeline8", benchmarks.Size{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k, err := benchmarks.ByName(bc.kernel)
			if err != nil {
				b.Fatal(err)
			}
			sz := bc.size
			if sz == (benchmarks.Size{}) {
				sz = k.DefaultSize()
			}
			svc := experiments.NewService(1, 64, 0)
			envs := sweepBatchEnvs()
			f := k.Factory(sz)
			ctx := context.Background()
			if _, err := svc.RunPoint(ctx, k, sz, f, 16, envs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.RunPoint(ctx, k, sz, f, 16, envs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(envs))*float64(b.N)/secs, "cells/s")
			}
		})
	}
}

// BenchmarkSweepFitted measures dense-ladder sweep throughput, exact
// versus fitted, on the streaming service with warm measurement caches
// — so the arms isolate per-cell simulation against sparse-anchor
// simulation plus the fit's arithmetic. The workload is one Grid curve
// over every processor count 1..32: the exact arm (RunLadder) simulates
// all 32 cells; the fitted arm (FitLadder, as a fitted /v1/sweep runs)
// simulates only the model package's anchor set (8 cells at the default
// 25% budget) and answers the rest from the least-squares fit. cells/s
// counts ladder cells answered, whatever their provenance; the fitted
// arm's advantage is the 4× fewer simulations behind those answers.
func BenchmarkSweepFitted(b *testing.B) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		b.Fatal(err)
	}
	sz := benchmarks.Size{N: 32, Iters: 60}
	ladder := make([]int, 32)
	for i := range ladder {
		ladder[i] = i + 1
	}
	envs := []machine.Env{machine.GenericDM()}
	for _, bc := range []struct {
		name   string
		fitted bool
	}{{"exact", false}, {"fitted", true}} {
		b.Run(bc.name, func(b *testing.B) {
			// Both arms run one point at a time on the calling goroutine.
			// With a second P, that goroutine's moves between Ps strand
			// the pooled compiled traces, streams and arenas in the other
			// P's private slot, and the exact arm read 292 to 330
			// allocs/op with no code change; one P makes the count a
			// property of the code. (The testing package sets -cpu's
			// value before each run of this function.)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			svc := experiments.NewService(1, 64, 0)
			ctx := context.Background()
			exact := func() error {
				_, err := experiments.RunLadder(ctx, svc, svc.Workers(), g, sz, envs, ladder)
				return err
			}
			run := exact
			if bc.fitted {
				run = func() error {
					_, err := experiments.FitLadder(ctx, svc, g, sz, envs, ladder)
					return err
				}
			}
			// Warm every measurement either arm can touch so the timed
			// region is simulation + fit, not benchmark measurement.
			if err := exact(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(ladder))*float64(b.N)/secs, "cells/s")
			}
		})
	}
}

// BenchmarkFullPipeline times measure→translate→simulate end to end.
func BenchmarkFullPipeline(b *testing.B) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		b.Fatal(err)
	}
	f := g.Factory(benchmarks.Size{N: 32, Iters: 60})
	cfg := machine.GenericDM().Config
	ctx := context.Background()
	run := func() {
		tr, err := core.MeasureContext(ctx, f(16), core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.ExtrapolateReader(ctx, tr.Header(), tr.Reader(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed run fills the stream and arena pools, so allocs/op
	// counts a warm run at every b.N.
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkProfileAnalyze times the performance-debugging analyzer on an
// extrapolated Grid trace.
func BenchmarkProfileAnalyze(b *testing.B) {
	tr := measureGrid(b, 16)
	cfg := machine.GenericDM().Config
	cfg.EmitTrace = true
	out, err := Extrapolate(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Analyze(out.Result.Trace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out.Result.Trace.Events))/1000, "kevents")
}

// BenchmarkTimelineBuild times timeline construction on the same trace.
func BenchmarkTimelineBuild(b *testing.B) {
	tr := measureGrid(b, 16)
	cfg := machine.GenericDM().Config
	cfg.EmitTrace = true
	out, err := Extrapolate(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timeline.Build(out.Result.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming-pipeline memory benchmarks ------------------------------------

// syntheticBigMeasurement builds a merged 1-processor measurement of at
// least minEvents events: threads iterating batches of remote reads
// between barriers. The measurement itself is cheap (virtual time), but
// the trace is large — the shape the streaming pipeline exists for.
// Communication dominates (many events per barrier) so the trace's
// length and its barrier count scale independently, keeping per-barrier
// bookkeeping out of the per-event memory picture.
func syntheticBigMeasurement(b *testing.B, threads, iters, minEvents int) *Trace {
	b.Helper()
	rt := pcxx.NewRuntime(pcxx.DefaultConfig(threads))
	c := pcxx.PerThread[float64](rt, "x", int64(threads))
	tr, err := rt.Run(func(th *pcxx.Thread) {
		for i := 0; i < iters; i++ {
			for j := 0; j < 16; j++ {
				th.Compute(vtime.Time(j%4+1) * 10 * vtime.Microsecond)
				_ = c.Read(th, (th.ID()+j+1)%threads)
			}
			th.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Events) < minEvents {
		b.Fatalf("synthetic trace has %d events, want ≥ %d", len(tr.Events), minEvents)
	}
	return tr
}

// sampleHeapPeak runs fn while sampling runtime.ReadMemStats and returns
// fn's duration-peak of live heap bytes above the pre-fn floor. The
// floor is taken after a GC so resident setup state (e.g. the encoded
// source bytes) is excluded — the result is what fn itself keeps live.
// GC is tightened while fn runs: HeapAlloc counts not-yet-collected
// garbage too, and at the default GOGC the collector lets the heap
// double before running, which would drown the live footprint in
// headroom proportional to the resident baseline.
func sampleHeapPeak(b *testing.B, fn func()) uint64 {
	b.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var p uint64
		var ms runtime.MemStats
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > p {
					p = ms.HeapAlloc
				}
				peak <- p
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > p {
					p = ms.HeapAlloc
				}
			}
		}
	}()
	fn()
	close(stop)
	p := <-peak
	if p <= base.HeapAlloc {
		return 0
	}
	return p - base.HeapAlloc
}

// bigTraceEncoded materializes the ≥1M-event synthetic measurement once,
// encodes it in the compiled XTRP2 format (so the streaming pipeline's
// pattern-native replay path is the one measured), and returns the
// compact bytes plus the in-memory pipeline's prediction as the
// equivalence reference. The live trace is dropped before returning so
// benchmarks start from the bytes alone.
func bigTraceEncoded(b *testing.B, cfg sim.Config) (enc []byte, nEvents int, want vtime.Time) {
	b.Helper()
	tr := syntheticBigMeasurement(b, 16, 4000, 1_000_000)
	nEvents = len(tr.Events)
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		b.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), nEvents, res.TotalTime
}

// BenchmarkStreamPipelineMemory extrapolates a ≥1M-event trace through
// the bounded-memory streaming pipeline (incremental decode → streaming
// translate → streaming simulate) and reports the peak live heap the
// pipeline keeps beyond the encoded source. The peak tracks the
// translation buffer (one barrier epoch across threads), not the event
// count — compare live-bytes/event against the in-memory benchmark
// below, whose peak is the materialized trace (≥ 37 B/event) plus the
// translation. Every iteration also asserts the prediction equals the
// in-memory pipeline's.
func BenchmarkStreamPipelineMemory(b *testing.B) {
	cfg := machine.GenericDM().Config
	enc, nEvents, want := bigTraceEncoded(b, cfg)
	var maxLive uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := sampleHeapPeak(b, func() {
			pred, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if pred.Result.TotalTime != want {
				b.Fatalf("streaming prediction %v != in-memory %v", pred.Result.TotalTime, want)
			}
		})
		if live > maxLive {
			maxLive = live
		}
	}
	b.ReportMetric(float64(nEvents)/1e6, "Mevents")
	b.ReportMetric(float64(maxLive), "peak-live-B")
	b.ReportMetric(float64(maxLive)/float64(nEvents), "live-B/event")
}

// BenchmarkInMemoryPipelineMemory is the materializing counterpart:
// decode the whole trace, translate, simulate. Its peak live heap grows
// linearly with the event count — the baseline the streaming pipeline
// is measured against.
func BenchmarkInMemoryPipelineMemory(b *testing.B) {
	cfg := machine.GenericDM().Config
	enc, nEvents, want := bigTraceEncoded(b, cfg)
	var maxLive uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := sampleHeapPeak(b, func() {
			tr, err := trace.ReadBinary2(enc)
			if err != nil {
				b.Fatal(err)
			}
			pt, err := translate.Translate(tr)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Simulate(context.Background(), pt, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.TotalTime != want {
				b.Fatalf("prediction %v != reference %v", res.TotalTime, want)
			}
		})
		if live > maxLive {
			maxLive = live
		}
	}
	b.ReportMetric(float64(nEvents)/1e6, "Mevents")
	b.ReportMetric(float64(maxLive), "peak-live-B")
	b.ReportMetric(float64(maxLive)/float64(nEvents), "live-B/event")
}

// BenchmarkStoreRoundTrip times one durable-store artifact round trip:
// Put the XTRP2 encoding of a mid-size Grid trace (the artifact a store
// holds) under a fresh key, then Get it back. Covers the
// content-address hash, the payload checksum, the segment append, and
// the full read-side verification.
func BenchmarkStoreRoundTrip(b *testing.B) {
	tr := measureGrid(b, 16)
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	st, err := store.Open(b.TempDir(), 256<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "bench/store-roundtrip|" + strconv.Itoa(i)
		if err := st.Put(key, enc); err != nil {
			b.Fatal(err)
		}
		if got, ok := st.Get(key); !ok || len(got) != len(enc) {
			b.Fatal("store round trip lost the artifact")
		}
	}
}

// BenchmarkStorePutParallel times puts into a fresh store from two
// goroutines, each putting distinct 2.5 KB artifacts: the shape of two
// cold requests persisting their traces at once. ns/op is wall time per
// put with both goroutines running.
func BenchmarkStorePutParallel(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const size = 2560
	b.SetBytes(size)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g)}, size)
			for i := g; i < b.N; i += 2 {
				copy(payload, strconv.Itoa(i))
				if err := st.Put("bench/store-put|"+strconv.Itoa(i), payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkTraceCodecXTRP2 times the trace codec round trip on a grid
// trace at 16 threads — pattern mining on encode, compile and pattern
// replay on the whole-trace decode. SetBytes counts flat 37-byte event
// records, so MB/s measures event throughput, not wire bytes; the
// compression ratio against the flat size (trace.EncodedSize) is
// reported as its own metric.
func BenchmarkTraceCodecXTRP2(b *testing.B) {
	tr := measureGrid(b, 16)
	flat := trace.EncodedSize(tr.Header(), len(tr.Events))
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			b.Fatal(err)
		}
		ratio = float64(flat) / float64(buf.Len())
		if _, err := trace.ReadBinary2(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(37 * len(tr.Events)))
	b.ReportMetric(ratio, "x-smaller")
}

// BenchmarkXTRP2Encode times XTRP2 encoding alone — delta transform,
// pattern mining and writing — on the grid trace of the codec
// benchmarks and on the farm-stencil composed preset, both at 16
// threads: the encode layer of a cold request.
func BenchmarkXTRP2Encode(b *testing.B) {
	fs, err := benchmarks.ByName("farm-stencil")
	if err != nil {
		b.Fatal(err)
	}
	farm, err := core.Measure(fs.Factory(fs.DefaultSize())(16), core.MeasureOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   *Trace
	}{{"grid16", measureGrid(b, 16)}, {"farm-stencil16", farm}} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := trace.WriteBinary2(&buf, c.tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.tr.Events)), "ns/event")
		})
	}
}

// BenchmarkPatternReplay compares the event-replay oracle (a plain
// record decoder, no pattern cursor) against production pattern-native
// replay with steady-state fast-forward on compiled (XTRP2) traces of
// the paper kernels. Loop-heavy kernels (mgrid, grid,
// at 8 threads and grid again at 32) spend most of their trace inside
// mined repeat bodies, so the fast-forward skips the bulk of the
// simulation; embar is embarrassingly parallel with a tiny loop-free
// trace, included as the honest lower bound (~1×, nothing to skip), and
// pipeline8 at 32 threads is the loop-poor case whose repeats are too
// short to repay a state fingerprint, where pattern replay must cost no
// more than event replay. Every iteration asserts the prediction is
// byte-identical to the event-replay reference, and the fast-forward
// hit counters are reported per operation.
func BenchmarkPatternReplay(b *testing.B) {
	kernels := []struct {
		label, name string
		size        benchmarks.Size
		threads     int
	}{
		{"mgrid", "mgrid", benchmarks.Size{N: 16, Iters: 240}, 8},
		{"grid", "grid", benchmarks.Size{N: 64, Iters: 324}, 8},
		{"embar", "embar", benchmarks.Size{N: 17}, 8},
		{"grid32", "grid", benchmarks.Size{N: 64, Iters: 324}, 32},
		{"pipeline8-32", "pipeline8", benchmarks.Size{N: 32, Iters: 2}, 32},
	}
	cfg := machine.GenericDM().Config
	for _, k := range kernels {
		g, err := benchmarks.ByName(k.name)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.Measure(g.Factory(k.size)(k.threads), core.MeasureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			b.Fatal(err)
		}
		enc := buf.Bytes()
		nEvents := len(tr.Events)
		ref, err := eventReplay(context.Background(), enc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		want := ref.Result.TotalTime
		for _, arm := range []struct {
			mode string
			run  func(context.Context, []byte, sim.Config) (*core.Prediction, error)
		}{
			{"event", eventReplay},
			{"pattern", core.ExtrapolateEncoded},
		} {
			b.Run(k.label+"/"+arm.mode, func(b *testing.B) {
				// One untimed run fills the compiled-trace, stream and
				// arena pools, so allocs/op counts a warm run at every b.N.
				if _, err := arm.run(context.Background(), enc, cfg); err != nil {
					b.Fatal(err)
				}
				before := sim.ReadReplayCounters()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pred, err := arm.run(context.Background(), enc, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if pred.Result.TotalTime != want {
						b.Fatalf("%s/%s prediction %v != event-replay reference %v",
							k.label, arm.mode, pred.Result.TotalTime, want)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(nEvents)/1e3, "kevents")
				if arm.mode == "pattern" {
					after := sim.ReadReplayCounters()
					n := float64(b.N)
					b.ReportMetric(float64(after.FastForwards-before.FastForwards)/n, "ffwd/op")
					b.ReportMetric(float64(after.IterationsSkipped-before.IterationsSkipped)/n, "iters-skipped/op")
					b.ReportMetric(float64(after.Fallbacks-before.Fallbacks)/n, "fallbacks/op")
				}
			})
		}
	}
}

// BenchmarkWarmCell is one warm what-if cell: compile, translate and
// simulate one cached XTRP2 measurement on one machine (cm5), the work
// a /v1/sweep request repeats for every ladder point and machine once
// its measurements are cached. The kernels are three of the what-if
// mix, at default sizes. Its allocations are the per-cell garbage a
// serving process collects.
func BenchmarkWarmCell(b *testing.B) {
	cells := []struct {
		label, name string
		threads     int
	}{
		{"grid16", "grid", 16},
		{"mgrid32", "mgrid", 32},
		{"matmul32", "matmul", 32},
	}
	cfg := machine.CM5().Config
	for _, c := range cells {
		g, err := benchmarks.ByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.Measure(g.Factory(g.DefaultSize())(c.threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			b.Fatal(err)
		}
		enc := buf.Bytes()
		b.Run(c.label, func(b *testing.B) {
			b.ReportAllocs()
			// One untimed call fills the compiled-trace, stream and arena
			// pools, so allocs/op counts a warm cell at every b.N.
			if _, err := core.ExtrapolateEncoded(context.Background(), enc, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ExtrapolateEncoded(context.Background(), enc, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmPoint is one warm what-if ladder point: one
// Service.RunPoint over every machine preset on a service whose cache
// holds the measurement, the work a four-machine /v1/sweep repeats per
// ladder point. mgrid at 32 threads streams the compiled trace once per
// machine (its program holds repeats fast-forward could attempt);
// matmul at 32 threads is translated once and replayed per machine;
// grid at 32 threads fast-forwards on every machine.
func BenchmarkWarmPoint(b *testing.B) {
	envs := machine.Presets()
	for _, c := range []struct {
		label, name string
		threads     int
	}{
		{"grid32", "grid", 32},
		{"mgrid32", "mgrid", 32},
		{"matmul32", "matmul", 32},
	} {
		k, err := benchmarks.ByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		sz := k.DefaultSize()
		f := k.Factory(sz)
		svc := experiments.NewService(1, 64, 0)
		ctx := context.Background()
		b.Run(c.label, func(b *testing.B) {
			// One P, as in BenchmarkSweepFitted: the points run on this
			// goroutine, and its moves between Ps would strand pooled
			// state and make allocs/op vary with no code change.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ReportAllocs()
			// One untimed point measures and fills the pools, so the
			// timed points are warm.
			if _, err := svc.RunPoint(ctx, k, sz, f, c.threads, envs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.RunPoint(ctx, k, sz, f, c.threads, envs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
