package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/direct"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
	"extrap/internal/report"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Matmul validation: predicted (ExtraP, CM-5 parameters) vs actual (direct CM-5 model)",
		Run:   runFig9,
	})
}

// matmulDists enumerates the nine distribution combinations of Figure 9.
func matmulDists() [][2]dist.Attr {
	attrs := []dist.Attr{dist.Block, dist.Cyclic, dist.Whole}
	var out [][2]dist.Attr
	for _, a := range attrs {
		for _, b := range attrs {
			out = append(out, [2]dist.Attr{a, b})
		}
	}
	return out
}

// runFig9 reproduces the validation study: Matmul with all nine data
// distributions, extrapolated with the Table 3 CM-5 parameter set, versus
// the independent direct CM-5 machine model standing in for the physical
// machine. The claim under test is not absolute accuracy but that the
// extrapolation preserves the relative ranking of the distribution
// choices — the property that makes it usable for optimization decisions.
func runFig9(opts Options) (*Output, error) {
	mm, err := benchmarks.ByName("matmul")
	if err != nil {
		return nil, err
	}
	size := opts.size(mm)
	size.Verify = false
	procs := opts.procs()
	env := machine.CM5()

	out := &Output{ID: "fig9", Title: "Matmul predicted vs actual"}
	predFig := report.Figure{
		Title: "Figure 9 (predicted): Matmul on CM-5 parameters", XLabel: "procs", YLabel: "ms", X: procs,
	}
	actFig := report.Figure{
		Title: "Figure 9 (actual): Matmul on the direct CM-5 model", XLabel: "procs", YLabel: "ms", X: procs,
	}

	dists := matmulDists()
	names := make([]string, len(dists))
	for di, d := range dists {
		names[di] = fmt.Sprintf("(%s,%s)", d[0], d[1])
	}

	// Every (distribution, procs) cell is independent: fan them all out,
	// each running both predictors on the same (cached) measurement.
	r := newRunner(opts)
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	cells := make([][]fig9Cell, len(dists))
	for di := range cells {
		cells[di] = make([]fig9Cell, len(procs))
	}
	err = r.each(len(dists)*len(procs), func(c int) error {
		di, pi := c/len(procs), c%len(procs)
		n := procs[pi]
		factory := benchmarks.MatmulFactory(size, dists[di][0], dists[di][1])
		tr, err := r.measured("matmul"+names[di], size, n, mopts, factory)
		if err != nil {
			return fmt.Errorf("fig9 %s procs=%d: %w", names[di], n, err)
		}
		pred, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), env.Config)
		if err != nil {
			return err
		}
		act, err := direct.Run(tr, direct.CM5())
		if err != nil {
			return err
		}
		cells[di][pi] = fig9Cell{pred: pred.Result.TotalTime, act: act.TotalTime}
		return nil
	})
	if err != nil {
		return nil, err
	}

	grid := map[string]map[int]fig9Cell{}
	for di, name := range names {
		grid[name] = map[int]fig9Cell{}
		predT := make([]float64, len(procs))
		actT := make([]float64, len(procs))
		for pi, n := range procs {
			grid[name][n] = cells[di][pi]
			predT[pi] = cells[di][pi].pred.Millis()
			actT[pi] = cells[di][pi].act.Millis()
		}
		predFig.Add(name, predT)
		actFig.Add(name, actT)
	}

	// Ranking agreement: does the predicted best distribution match the
	// actual best at each processor count, and how close is the predicted
	// best to the actual optimum when it differs?
	rank := report.Table{
		Title:   "Ranking agreement per processor count",
		Columns: []string{"procs", "predicted best", "actual best", "match", "penalty vs optimum", "rank corr"},
	}
	for _, n := range procs {
		bestPred, bestAct := "", ""
		var bp, ba vtime.Time = vtime.Forever, vtime.Forever
		for _, name := range names {
			c := grid[name][n]
			if c.pred < bp {
				bp, bestPred = c.pred, name
			}
			if c.act < ba {
				ba, bestAct = c.act, name
			}
		}
		// If the predicted best differs, how much worse is it on the
		// "actual" machine than the true optimum (the paper reports 3%)?
		// A penalty under 1% is a performance tie (e.g. (Whole,Block) vs
		// (Whole,Cyclic) when the column interleave is immaterial).
		penalty := float64(grid[bestPred][n].act-ba) / float64(ba) * 100
		match := "yes"
		switch {
		case bestPred == bestAct:
		case penalty < 1.0:
			match = "tie"
		default:
			match = "no"
		}
		rank.AddRow(n, bestPred, bestAct, match,
			fmt.Sprintf("%.1f%%", penalty), fmt.Sprintf("%.2f", rankCorrelation(names, grid, n)))
	}
	rank.Notes = []string{
		"the paper: same best choice at every processor count except 32,",
		"where the predicted best was within 3% of the actual optimum",
	}

	out.Figures = append(out.Figures, predFig, actFig)
	out.Tables = append(out.Tables, rank)
	return out, nil
}

// fig9Cell pairs the two predictions for one (distribution, procs) point.
type fig9Cell struct{ pred, act vtime.Time }

// rankCorrelation computes Spearman's ρ between predicted and actual
// orderings of the distributions at one processor count.
func rankCorrelation(names []string, grid map[string]map[int]fig9Cell, n int) float64 {
	rankOf := func(key func(string) vtime.Time) map[string]int {
		order := append([]string(nil), names...)
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && key(order[j]) < key(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		r := map[string]int{}
		for i, nm := range order {
			r[nm] = i
		}
		return r
	}
	pr := rankOf(func(nm string) vtime.Time { return grid[nm][n].pred })
	ar := rankOf(func(nm string) vtime.Time { return grid[nm][n].act })
	var d2 float64
	for _, nm := range names {
		d := float64(pr[nm] - ar[nm])
		d2 += float64(d * d)
	}
	k := float64(len(names))
	return 1 - 6*d2/(k*(float64(k*k)-1))
}
