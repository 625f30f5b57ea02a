package experiments

import (
	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/report"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Grid under different extrapolations (the transfer-size investigation)",
		Run:   runFig5,
	})
}

// runFig5 reproduces the Figure 5 investigation of Grid's poor
// distributed-memory speedup:
//
//  1. the baseline DM environment with compiler-estimated transfer sizes
//     (each ghost-strip read charged as a whole grid element);
//  2. the same with 200 MB/s links (shared-memory-like bandwidth);
//  3. an ideal environment (zero communication/synchronization);
//  4. the baseline again but with actual transfer sizes — the compiler's
//     partial-transfer optimization reflected in the measurement;
//  5. actual sizes plus reduced communication start-up.
func runFig5(opts Options) (*Output, error) {
	grid, err := benchmarks.ByName("grid")
	if err != nil {
		return nil, err
	}
	size := opts.size(grid)
	procs := opts.procs()

	type variant struct {
		name string
		mode pcxx.SizeMode
		cfg  sim.Config
	}
	base := machine.GenericDM().Config
	highBW := base
	highBW.Comm.ByteTransferTime = 5 * vtime.Nanosecond // 200 MB/s
	lowStartup := base
	lowStartup.Comm.StartupTime = 5 * vtime.Microsecond
	lowStartup.Comm.MsgConstructTime = 2 * vtime.Microsecond
	variants := []variant{
		{"dm-20MB/s (estimate)", pcxx.CompilerEstimate, base},
		{"dm-200MB/s (estimate)", pcxx.CompilerEstimate, highBW},
		{"ideal", pcxx.CompilerEstimate, machine.Ideal().Config},
		{"dm-20MB/s (actual size)", pcxx.ActualSize, base},
		{"actual size + low startup", pcxx.ActualSize, lowStartup},
	}

	out := &Output{ID: "fig5", Title: "Comparison of different extrapolations (Grid)"}
	timeFig := report.Figure{
		Title: "Figure 5: Grid execution time", XLabel: "procs", YLabel: "ms", X: procs,
	}
	speedFig := report.Figure{
		Title: "Figure 5: Grid speedup", XLabel: "procs", YLabel: "speedup", X: procs,
	}
	r := newRunner(opts)
	jobs := make([]sweepJob, len(variants))
	for i, v := range variants {
		jobs[i] = sweepJob{
			Name: grid.Name(), Size: size, Factory: grid.Factory(size),
			Mode: v.mode, Cfg: v.cfg, Procs: procs,
		}
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		timeFig.Add(v.name, times(series[i]))
		speedFig.Add(v.name, metrics.Speedup(series[i]))
	}

	// Trace statistics table: the evidence trail of the investigation —
	// barrier counts and the estimate-vs-actual transfer volumes.
	stats := report.Table{
		Title:   "Grid trace statistics (largest processor count)",
		Columns: []string{"attribution", "barriers", "remote reads", "remote bytes", "bytes/read"},
	}
	// Both attributions were already measured at this processor count by
	// the sweep above, so these lookups are memo hits.
	n := procs[len(procs)-1]
	for _, mode := range []pcxx.SizeMode{pcxx.CompilerEstimate, pcxx.ActualSize} {
		tr, err := r.measured(grid.Name(), size, n, core.MeasureOptions{SizeMode: mode}, grid.Factory(size))
		if err != nil {
			return nil, err
		}
		s := trace.ComputeStats(tr)
		per := int64(0)
		if s.RemoteReads > 0 {
			per = s.RemoteBytes / s.RemoteReads
		}
		stats.AddRow(mode.String(), s.Barriers, s.RemoteReads, s.RemoteBytes, per)
	}
	stats.Notes = []string{
		"the compiler-estimate attribution charges each ghost-strip read as a whole grid element,",
		"the measurement abstraction whose cost the paper's Grid study uncovered (2 and 128 real bytes)",
	}

	out.Figures = append(out.Figures, timeFig, speedFig)
	out.Tables = append(out.Tables, stats)
	return out, nil
}
