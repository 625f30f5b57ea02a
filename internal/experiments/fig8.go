package experiments

import (
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/report"
	"extrap/internal/sim"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Effects of the remote data request service policy",
		Run:   runFig8,
	})
}

// runFig8 reproduces Figure 8: Cyclic and Grid execution times under the
// remote-request service policies — no-interrupt (requests wait for the
// owner to block), interrupt (active-message style), and polling at 100,
// 500, and 1000 µs intervals — with CommStartupTime raised to 100 µs as
// in the paper's parameter note.
func runFig8(opts Options) (*Output, error) {
	policies := []struct {
		name string
		pol  sim.Policy
	}{
		{"no-interrupt/poll", sim.Policy{Kind: sim.NoInterrupt, ServiceTime: 15 * vtime.Microsecond}},
		{"interrupt", sim.Policy{Kind: sim.Interrupt, InterruptOverhead: 10 * vtime.Microsecond, ServiceTime: 15 * vtime.Microsecond}},
		{"poll 100µs", pollPolicy(100)},
		{"poll 500µs", pollPolicy(500)},
		{"poll 1000µs", pollPolicy(1000)},
	}

	out := &Output{ID: "fig8", Title: "Remote data request service policies"}
	benchNames := []string{"cyclic", "grid"}
	r := newRunner(opts)
	var jobs []sweepJob
	for _, benchName := range benchNames {
		b, err := benchmarks.ByName(benchName)
		if err != nil {
			return nil, err
		}
		for _, p := range policies {
			cfg := machine.GenericDM().Config
			cfg.Comm.StartupTime = 100 * vtime.Microsecond
			cfg.Policy = p.pol
			jobs = append(jobs, r.job(b, pcxx.ActualSize, cfg, opts.procs()))
		}
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for bi, benchName := range benchNames {
		fig := report.Figure{
			Title:  fmt.Sprintf("Figure 8: %s execution time by policy", benchName),
			XLabel: "procs", YLabel: "ms", X: opts.procs(),
		}
		for pi, p := range policies {
			fig.Add(p.name, times(series[bi*len(policies)+pi]))
		}
		fig.Notes = []string{
			"expect: no-interrupt worst; interrupt best for grid;",
			"polling competitive for cyclic at larger processor counts",
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

func pollPolicy(intervalUs int) sim.Policy {
	return sim.Policy{
		Kind:         sim.Poll,
		PollInterval: vtime.Time(intervalUs) * vtime.Microsecond,
		PollOverhead: 2 * vtime.Microsecond,
		ServiceTime:  15 * vtime.Microsecond,
	}
}
