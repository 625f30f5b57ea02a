package experiments

import (
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/report"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Effect of MipsRatio and CommStartupTime on Mgrid",
		Run:   runFig7,
	})
}

// runFig7 reproduces Figure 7: Mgrid execution times for the cross
// product MipsRatio {1.0, 0.25} × CommStartupTime {5, 100, 200} µs. The
// paper's observation: the processor count delivering minimum execution
// time drops (16 → 4 in their data) when the faster processor
// (MipsRatio 0.25) makes communication overhead dominant earlier.
func runFig7(opts Options) (*Output, error) {
	mgrid, err := benchmarks.ByName("mgrid")
	if err != nil {
		return nil, err
	}
	ratios := []float64{1.0, 0.25}
	startups := []vtime.Time{5 * vtime.Microsecond, 100 * vtime.Microsecond, 200 * vtime.Microsecond}

	out := &Output{ID: "fig7", Title: "MipsRatio × CommStartupTime on Mgrid"}
	fig := report.Figure{
		Title: "Figure 7: Mgrid execution time", XLabel: "procs", YLabel: "ms", X: opts.procs(),
	}
	minTab := report.Table{
		Title:   "Minimum-time processor count",
		Columns: []string{"MipsRatio", "CommStartupTime", "best procs", "best time"},
	}
	// Six configurations over one benchmark: the run's memo measures each
	// ladder point once and simulates it under all six parameter sets.
	r := newRunner(opts)
	var jobs []sweepJob
	for _, ratio := range ratios {
		for _, su := range startups {
			cfg := machine.GenericDM().Config
			cfg.MipsRatio = ratio
			cfg.Comm.StartupTime = su
			jobs = append(jobs, r.job(mgrid, pcxx.ActualSize, cfg, opts.procs()))
		}
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for ri, ratio := range ratios {
		for si, su := range startups {
			points := series[ri*len(startups)+si]
			name := fmt.Sprintf("ratio=%.2f startup=%v", ratio, su)
			fig.Add(name, times(points))
			best := metrics.MinTimePoint(points)
			minTab.AddRow(fmt.Sprintf("%.2f", ratio), su.String(), best.Procs, best.Time.String())
		}
	}
	minTab.Notes = []string{
		"expect: the faster target processor (ratio 0.25) reaches its minimum at fewer processors",
		"because communication overhead dominates earlier",
	}
	out.Figures = append(out.Figures, fig)
	out.Tables = append(out.Tables, minTab)
	return out, nil
}
