package experiments

import (
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Execution time and speedup with different MipsRatio",
		Run:   runFig6,
	})
}

// runFig6 reproduces Figure 6: processor scaling under MipsRatio 2.0
// (target 2× slower), 1.0, and 0.5 (target 2× faster) for the four
// benchmarks the paper graphs — Embar execution time (i), Cyclic speedup
// (ii), Sort speedup (iii), and Mgrid speedup (iv) — plus Poisson, whose
// communication bottleneck the text notes only bites at 32 processors.
func runFig6(opts Options) (*Output, error) {
	ratios := []float64{2.0, 1.0, 0.5}
	out := &Output{ID: "fig6", Title: "MipsRatio extrapolation"}
	graphs := []struct {
		bench  string
		metric string // "time" or "speedup"
		label  string
	}{
		{"embar", "time", "(i) Embar execution time"},
		{"cyclic", "speedup", "(ii) Cyclic speedup"},
		{"sort", "speedup", "(iii) Sort speedup"},
		{"mgrid", "speedup", "(iv) Mgrid speedup"},
		{"poisson", "speedup", "(extra) Poisson speedup"},
	}
	// One job per (benchmark, ratio) curve; the run's memo shares each
	// benchmark's per-ladder measurements across all three ratios.
	r := newRunner(opts)
	var jobs []sweepJob
	for _, g := range graphs {
		b, err := benchmarks.ByName(g.bench)
		if err != nil {
			return nil, err
		}
		for _, ratio := range ratios {
			cfg := machine.GenericDM().Config
			cfg.MipsRatio = ratio
			jobs = append(jobs, r.job(b, pcxx.ActualSize, cfg, opts.procs()))
		}
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for gi, g := range graphs {
		fig := report.Figure{
			Title:  fmt.Sprintf("Figure 6 %s", g.label),
			XLabel: "procs", YLabel: g.metric, X: opts.procs(),
		}
		for ri, ratio := range ratios {
			points := series[gi*len(ratios)+ri]
			name := fmt.Sprintf("MipsRatio=%.1f", ratio)
			if g.metric == "time" {
				fig.Add(name, times(points))
			} else {
				fig.Add(name, metrics.Speedup(points))
			}
		}
		out.Figures = append(out.Figures, fig)
	}
	out.Figures[0].Notes = []string{"expect 2× time shifts for compute-bound Embar"}
	out.Figures[3].Notes = []string{"expect Mgrid's speedup to react strongly: computation/communication ratio shifts"}
	return out, nil
}
