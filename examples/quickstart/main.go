// Quickstart: the complete extrapolation pipeline in ~60 lines.
//
// We write a small data-parallel program against the pcxx runtime, measure
// it with 8 threads on one (virtual) processor, translate the trace, and
// predict its performance on two different target machines — without ever
// "running" it on either.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

func main() {
	const threads = 8

	// A toy stencil program: each thread owns one element; every step it
	// reads its ring neighbor, updates its element, and synchronizes.
	program := core.Program{
		Name:    "ring-stencil",
		Threads: threads,
		Setup: func(rt *pcxx.Runtime) func(*pcxx.Thread) {
			cells := pcxx.PerThread[float64](rt, "cells", 8)
			next := pcxx.PerThread[float64](rt, "next", 8)
			return func(t *pcxx.Thread) {
				*cells.Local(t, t.ID()) = float64(t.ID())
				t.Barrier()
				for step := 0; step < 50; step++ {
					nbr := cells.Read(t, (t.ID()+1)%threads) // remote read
					*next.Local(t, t.ID()) = 0.5 * (*cells.Local(t, t.ID()) + nbr)
					t.Flops(2000) // the step's computation
					t.Barrier()
					*cells.Local(t, t.ID()) = *next.Local(t, t.ID())
					t.Barrier()
				}
			}
		},
	}

	// Step 1: measure — an n-thread, 1-processor instrumented run.
	tr, err := core.Measure(program, core.MeasureOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stats := trace.ComputeStats(tr)
	fmt.Printf("measurement: %d events, %d barriers, %d remote reads, 1-proc time %v\n",
		stats.Events, stats.Barriers, stats.RemoteReads, stats.Duration)

	// Steps 2+3: translate + simulate, for two very different targets.
	ctx := context.Background()
	for _, env := range []machine.Env{machine.GenericDM(), machine.SharedMem()} {
		out, err := core.ExtrapolateReader(ctx, tr.Header(), tr.Reader(), env.Config)
		if err != nil {
			log.Fatal(err)
		}
		r := out.Result
		fmt.Printf("\ntarget %q (%s):\n", env.Name, env.Description)
		fmt.Printf("  predicted time:   %v (ideal would be %v)\n",
			r.TotalTime, out.Ideal)
		fmt.Printf("  predicted speedup: %.2f of %d processors\n",
			stats.Duration.Seconds()/r.TotalTime.Seconds(), threads)
		fmt.Printf("  where the time goes: %v\n", metrics.ComputeBreakdown(r))
	}

	// Bonus: what if the target processor were 4× faster?
	cfg := machine.GenericDM().Config
	cfg.MipsRatio = 0.25
	out, err := core.ExtrapolateReader(ctx, tr.Header(), tr.Reader(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith a 4x faster processor (MipsRatio 0.25): %v — %s\n",
		out.Result.TotalTime,
		verdict(out.Result.TotalTime, vtime.Time(float64(stats.Duration)/float64(threads))))
}

func verdict(predicted, perfect vtime.Time) string {
	if predicted < 2*perfect {
		return "communication is not (yet) the bottleneck"
	}
	return "communication dominates; more processors will not help"
}
