// Matmulvalidation reproduces the Section 4.2 validation study in
// miniature: Matmul under several data distributions, extrapolated with
// the Table 3 CM-5 parameter set, compared against the independent direct
// CM-5 machine model. The question the paper asks: does the cheap
// extrapolation rank the distribution choices the same way the machine
// does, so a programmer can pick the right one without machine time?
//
//	go run ./examples/matmulvalidation
package main

import (
	"context"
	"fmt"
	"log"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/direct"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
	"extrap/internal/vtime"
)

func main() {
	size := benchmarks.Size{N: 48}
	combos := [][2]dist.Attr{
		{dist.Block, dist.Block},
		{dist.Block, dist.Whole},
		{dist.Whole, dist.Block},
		{dist.Cyclic, dist.Cyclic},
		{dist.Whole, dist.Whole},
	}
	procs := []int{4, 16}

	fmt.Printf("Matmul %d×%d: predicted (ExtraP, CM-5 parameters) vs actual (direct CM-5 model)\n", size.N, size.N)
	for _, n := range procs {
		fmt.Printf("\n%d processors:\n", n)
		type row struct {
			name      string
			pred, act vtime.Time
		}
		var rows []row
		for _, d := range combos {
			factory := benchmarks.MatmulFactory(size, d[0], d[1])
			tr, err := core.Measure(factory(n), core.MeasureOptions{SizeMode: pcxx.ActualSize})
			if err != nil {
				log.Fatal(err)
			}
			out, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), machine.CM5().Config)
			if err != nil {
				log.Fatal(err)
			}
			act, err := direct.Run(tr, direct.CM5())
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row{
				name: fmt.Sprintf("(%s,%s)", d[0], d[1]),
				pred: out.Result.TotalTime,
				act:  act.TotalTime,
			})
		}
		bestPred, bestAct := 0, 0
		for i, r := range rows {
			if r.pred < rows[bestPred].pred {
				bestPred = i
			}
			if r.act < rows[bestAct].act {
				bestAct = i
			}
		}
		for i, r := range rows {
			marks := ""
			if i == bestPred {
				marks += "  ← predicted best"
			}
			if i == bestAct {
				marks += "  ← actual best"
			}
			fmt.Printf("  %-17s predicted %10v   actual %10v%s\n", r.name, r.pred, r.act, marks)
		}
		if bestPred == bestAct {
			fmt.Println("  extrapolation picked the machine's best distribution ✓")
		} else {
			penalty := float64(rows[bestPred].act-rows[bestAct].act) /
				float64(rows[bestAct].act) * 100
			fmt.Printf("  predicted best differs; costs %.1f%% over the true optimum\n", penalty)
		}
	}
}
