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
	register(Experiment{ID: "ablation-barrier", Title: "Barrier algorithm ablation (linear vs tree vs hardware)", Run: runAblationBarrier})
	register(Experiment{ID: "ablation-contention", Title: "Contention model ablation (on vs off)", Run: runAblationContention})
	register(Experiment{ID: "ablation-multithread", Title: "Multithreading extension (n threads on m ≤ n processors)", Run: runAblationMultithread})
}

// runAblationBarrier swaps the barrier algorithm — the substitution the
// paper explicitly contemplates ("we can easily substitute other barrier
// algorithms, e.g. logarithmic") — on the barrier-heavy Cyclic benchmark.
func runAblationBarrier(opts Options) (*Output, error) {
	cy, err := benchmarks.ByName("cyclic")
	if err != nil {
		return nil, err
	}
	out := &Output{ID: "ablation-barrier", Title: "Barrier algorithms"}
	fig := report.Figure{
		Title: "Cyclic execution time by barrier algorithm", XLabel: "procs", YLabel: "ms", X: opts.procs(),
	}
	algorithms := []struct {
		name string
		alg  sim.BarrierAlgorithm
	}{
		{"linear (paper)", sim.LinearBarrier},
		{"logarithmic tree", sim.TreeBarrier},
		{"hardware (CM-5 control net)", sim.HardwareBarrier},
	}
	r := newRunner(opts)
	jobs := make([]sweepJob, len(algorithms))
	for i, a := range algorithms {
		cfg := machine.GenericDM().Config
		cfg.Barrier.Algorithm = a.alg
		cfg.Barrier.HardwareTime = 3 * vtime.Microsecond
		jobs[i] = r.job(cy, pcxx.ActualSize, cfg, opts.procs())
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, a := range algorithms {
		fig.Add(a.name, times(series[i]))
	}
	fig.Notes = []string{"the linear master-slave barrier is an upper bound on synchronization cost (Section 3.3.3)"}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

// runAblationContention toggles the analytical contention model on the
// communication-heavy Sparse benchmark.
func runAblationContention(opts Options) (*Output, error) {
	sp, err := benchmarks.ByName("sparse")
	if err != nil {
		return nil, err
	}
	out := &Output{ID: "ablation-contention", Title: "Contention model"}
	fig := report.Figure{
		Title: "Sparse execution time with and without contention", XLabel: "procs", YLabel: "ms", X: opts.procs(),
	}
	factors := []float64{0, 0.05, 0.25}
	r := newRunner(opts)
	jobs := make([]sweepJob, len(factors))
	for i, factor := range factors {
		cfg := machine.GenericDM().Config
		cfg.Comm.ContentionFactor = factor
		jobs[i] = r.job(sp, pcxx.ActualSize, cfg, opts.procs())
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for i, factor := range factors {
		fig.Add(fmt.Sprintf("contention=%.2f", factor), times(series[i]))
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

// runAblationMultithread exercises the Section 6 extension: extrapolating
// an n-thread measurement to m < n processors with thread multiplexing.
func runAblationMultithread(opts Options) (*Output, error) {
	out := &Output{ID: "ablation-multithread", Title: "n threads on m processors"}
	tab := report.Table{
		Title:   "Embar and Grid: 16 threads multiplexed onto m processors",
		Columns: []string{"benchmark", "m procs", "time", "speedup vs m=1"},
	}
	const threads = 16
	benchNames := []string{"embar", "grid"}
	msizes := []int{1, 2, 4, 8, 16}
	// Each benchmark is one 16-thread measurement, memoized across all
	// five simulated processor counts.
	r := newRunner(opts)
	var jobs []sweepJob
	for _, name := range benchNames {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, m := range msizes {
			cfg := machine.GenericDM().Config
			cfg.Procs = m
			cfg.ContextSwitchTime = 20 * vtime.Microsecond
			jobs = append(jobs, r.job(b, pcxx.ActualSize, cfg, []int{threads}))
		}
	}
	series, err := r.runGrid(jobs)
	if err != nil {
		return nil, err
	}
	for bi, name := range benchNames {
		var base vtime.Time
		for mi, m := range msizes {
			t := series[bi*len(msizes)+mi][0].Time
			if m == 1 {
				base = t
			}
			tab.AddRow(name, m, t.String(), fmt.Sprintf("%.2f", float64(base)/float64(t)))
		}
	}
	tab.Notes = []string{"the measurement is a single 16-thread run; only the simulated processor count changes"}
	out.Tables = append(out.Tables, tab)
	return out, nil
}
