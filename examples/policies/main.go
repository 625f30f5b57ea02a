// Policies explores the runtime-system question of Figure 8: which remote
// data request service policy — no-interrupt, interrupt, or polling (and
// at which interval) — suits a given program on a given machine? The
// extrapolation answers per-program: one measurement of each benchmark,
// then one cheap simulation per candidate policy.
//
//	go run ./examples/policies
package main

import (
	"context"
	"fmt"
	"log"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

func main() {
	policies := []struct {
		name string
		pol  sim.Policy
	}{
		{"no-interrupt", sim.Policy{Kind: sim.NoInterrupt, ServiceTime: 15 * vtime.Microsecond}},
		{"interrupt", sim.Policy{Kind: sim.Interrupt,
			InterruptOverhead: 10 * vtime.Microsecond, ServiceTime: 15 * vtime.Microsecond}},
		{"poll 100µs", poll(100)},
		{"poll 500µs", poll(500)},
		{"poll 1000µs", poll(1000)},
	}

	for _, benchName := range []string{"cyclic", "grid"} {
		b, err := benchmarks.ByName(benchName)
		if err != nil {
			log.Fatal(err)
		}
		size := quickSize(benchName)
		const n = 16

		// One measurement serves every policy question.
		tr, err := core.Measure(b.Factory(size)(n), core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if err != nil {
			log.Fatal(err)
		}
		s := trace.ComputeStats(tr)
		fmt.Printf("%s at %d threads: %d remote reads, %d barriers\n",
			benchName, n, s.RemoteReads, s.Barriers)

		best := ""
		var bestT vtime.Time = vtime.Forever
		for _, p := range policies {
			cfg := machine.GenericDM().Config
			cfg.Comm.StartupTime = 100 * vtime.Microsecond // the Figure 8 setting
			cfg.Policy = p.pol
			out, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-13s %12v  (service work %v)\n",
				p.name, out.Result.TotalTime, out.Result.TotalService())
			if out.Result.TotalTime < bestT {
				bestT, best = out.Result.TotalTime, p.name
			}
		}
		fmt.Printf("  → best policy for %s here: %s\n\n", benchName, best)
	}
	fmt.Println("Program execution characteristics decide the winner — exactly the paper's point.")
}

func poll(intervalUs int) sim.Policy {
	return sim.Policy{
		Kind:         sim.Poll,
		PollInterval: vtime.Time(intervalUs) * vtime.Microsecond,
		PollOverhead: 2 * vtime.Microsecond,
		ServiceTime:  15 * vtime.Microsecond,
	}
}

func quickSize(name string) benchmarks.Size {
	if name == "cyclic" {
		return benchmarks.Size{N: 512, Iters: 16}
	}
	return benchmarks.Size{N: 48, Iters: 120}
}
