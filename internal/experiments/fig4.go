package experiments

import (
	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Speedup curves for all benchmarks (distributed-memory parameter set)",
		Run:   runFig4,
	})
}

// runFig4 reproduces Figure 4: every suite benchmark swept over the
// processor ladder under the Figure 4 environment — 20 MB/s links,
// high communication and synchronization overheads — using the original
// compiler-estimate transfer-size attribution (whose Grid consequences
// Figure 5 investigates).
func runFig4(opts Options) (*Output, error) {
	env := machine.GenericDM()
	out := &Output{ID: "fig4", Title: "Speedup curves for all benchmarks"}
	speedFig := report.Figure{
		Title: "Figure 4: speedup vs processors", XLabel: "procs", YLabel: "speedup",
		X: opts.procs(),
	}
	timeFig := report.Figure{
		Title: "Figure 4 (companion): execution time vs processors", XLabel: "procs", YLabel: "ms",
		X: opts.procs(),
	}
	tab := report.Table{
		Title:   "Figure 4 data",
		Columns: []string{"benchmark", "procs", "time", "speedup", "efficiency"},
	}
	r := newRunner(opts)
	suite := benchmarks.Suite()
	jobs := make([]sweepJob, len(suite))
	for i, b := range suite {
		jobs[i] = r.job(b, pcxx.CompilerEstimate, env.Config, opts.procs())
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, b := range suite {
		points := series[i]
		sp := metrics.Speedup(points)
		eff := metrics.Efficiency(points)
		speedFig.Add(b.Name(), sp)
		timeFig.Add(b.Name(), times(points))
		for i, p := range points {
			tab.AddRow(b.Name(), p.Procs, p.Time.String(), sp[i], eff[i])
		}
	}
	speedFig.Notes = []string{
		"expect: embar ≈ linear; cyclic and poisson reasonable; grid/mgrid flatten after 4 procs",
		"(BLOCK,BLOCK) idles non-square processor counts: no improvement 4→8",
	}
	out.Figures = append(out.Figures, speedFig, timeFig)
	out.Tables = append(out.Tables, tab)
	return out, nil
}
