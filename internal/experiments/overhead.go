package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/report"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "ablation-overhead",
		Title: "Instrumentation perturbation compensation (Section 3.2)",
		Run:   runAblationOverhead,
	})
}

// runAblationOverhead demonstrates the trace-translation property the
// paper states in Section 3.2 ("the trace translation algorithm is easily
// modified to handle the overhead for recording the events"): the same
// program is measured with increasing per-event instrumentation cost, and
// the extrapolated prediction stays constant because translation
// compensates — while the raw (uncompensated) 1-processor time inflates.
func runAblationOverhead(opts Options) (*Output, error) {
	g, err := benchmarks.ByName("grid")
	if err != nil {
		return nil, err
	}
	size := opts.size(g)
	threads := 8
	cfg := machine.GenericDM().Config

	out := &Output{ID: "ablation-overhead", Title: "Perturbation compensation"}
	tab := report.Table{
		Title: "Grid: per-event instrumentation overhead vs prediction",
		Columns: []string{"overhead/event", "measured 1-proc time",
			"inflation", "predicted time", "prediction drift"},
	}
	// Each overhead level is an independent measurement (the EventOverhead
	// is part of the cache key); the zero-overhead row anchors the ratios,
	// so assembly waits for the full fan-out.
	overheads := []vtime.Time{0, 1 * vtime.Microsecond, 5 * vtime.Microsecond,
		25 * vtime.Microsecond, 100 * vtime.Microsecond}
	type row struct {
		measured  vtime.Time
		predicted vtime.Time
	}
	rows := make([]row, len(overheads))
	r := newRunner(opts)
	err = r.each(len(overheads), func(i int) error {
		mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize, EventOverhead: overheads[i]}
		tr, err := r.measured(g.Name(), size, threads, mopts, g.Factory(size))
		if err != nil {
			return err
		}
		pred, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
		if err != nil {
			return err
		}
		rows[i] = row{measured: tr.Duration(), predicted: pred.Result.TotalTime}
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseMeasured, basePredicted := rows[0].measured, rows[0].predicted
	for i, ovh := range overheads {
		inflation := float64(rows[i].measured) / float64(baseMeasured)
		drift := float64(rows[i].predicted)/float64(basePredicted) - 1
		tab.AddRow(ovh.String(), rows[i].measured.String(),
			fmt.Sprintf("%.2f×", inflation),
			rows[i].predicted.String(),
			fmt.Sprintf("%+.2f%%", drift*100))
	}
	tab.Notes = []string{
		"translation subtracts the recorded per-event overhead from every inter-event delta,",
		"so heavily perturbed measurements still extrapolate to the unperturbed prediction",
	}
	out.Tables = append(out.Tables, tab)
	return out, nil
}
