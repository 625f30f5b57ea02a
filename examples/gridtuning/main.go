// Gridtuning replays the paper's Figure 5 performance-debugging session
// on the Grid benchmark, narrating each step of the investigation:
//
//  1. Grid's distributed-memory speedup flattens after 4 processors.
//  2. Raising bandwidth to shared-memory levels helps only partly.
//  3. An ideal (free communication) extrapolation shows good speedup is
//     possible, and the trace statistics rule out barriers (only ~650).
//  4. The real culprit: the measurement attributed whole-element
//     transfers (the compiler estimate) to each ghost-strip read.
//     Re-attributing actual sizes recovers the speedup.
//  5. Reducing start-up overhead improves it further.
//
// Every conclusion is reached from one-processor measurements plus
// simulation — no parallel machine involved, which is the point.
//
//	go run ./examples/gridtuning
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
	grid, err := benchmarks.ByName("grid")
	if err != nil {
		log.Fatal(err)
	}
	size := benchmarks.Size{N: 48, Iters: 120}
	procs := []int{1, 2, 4, 8, 16}

	speedups := func(mode pcxx.SizeMode, cfg sim.Config) []float64 {
		var base vtime.Time
		out := make([]float64, len(procs))
		for i, n := range procs {
			tr, err := core.Measure(grid.Factory(size)(n), core.MeasureOptions{SizeMode: mode})
			if err != nil {
				log.Fatal(err)
			}
			o, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				base = o.Result.TotalTime
			}
			out[i] = float64(base) / float64(o.Result.TotalTime)
		}
		return out
	}
	show := func(label string, sp []float64) {
		fmt.Printf("  %-34s", label)
		for i, s := range sp {
			fmt.Printf("  P%-2d %5.2f", procs[i], s)
		}
		fmt.Println()
	}

	fmt.Println("Step 1: Grid on the distributed-memory target (compiler-estimated sizes)")
	dm := machine.GenericDM().Config
	sp := speedups(pcxx.CompilerEstimate, dm)
	show("dm 20 MB/s:", sp)
	fmt.Println("  → speedup levels off; why?")

	fmt.Println("\nStep 2: raise the bandwidth to 200 MB/s (shared-memory class)")
	hb := dm
	hb.Comm.ByteTransferTime = 5 * vtime.Nanosecond
	show("dm 200 MB/s:", speedups(pcxx.CompilerEstimate, hb))
	fmt.Println("  → better, but still short of shared-memory results")

	fmt.Println("\nStep 3: extrapolate to an ideal environment and check the trace")
	show("ideal:", speedups(pcxx.CompilerEstimate, machine.Ideal().Config))
	tr, err := core.Measure(grid.Factory(size)(16), core.MeasureOptions{SizeMode: pcxx.CompilerEstimate})
	if err != nil {
		log.Fatal(err)
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("  trace statistics at 16 threads: %d barriers, %d remote reads, %d bytes/read\n",
		st.Barriers, st.RemoteReads, st.RemoteBytes/maxi64(st.RemoteReads, 1))
	fmt.Println("  → not enough barriers to blame synchronization; look at transfer sizes")

	fmt.Println("\nStep 4: the compiler requests only boundary strips — use actual sizes")
	trA, err := core.Measure(grid.Factory(size)(16), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		log.Fatal(err)
	}
	stA := trace.ComputeStats(trA)
	fmt.Printf("  actual transfer sizes: %d bytes/read (vs %d estimated)\n",
		stA.RemoteBytes/maxi64(stA.RemoteReads, 1), st.RemoteBytes/maxi64(st.RemoteReads, 1))
	show("dm 20 MB/s, actual sizes:", speedups(pcxx.ActualSize, dm))

	fmt.Println("\nStep 5: with transfer volume fixed, start-up overhead is next")
	ls := dm
	ls.Comm.StartupTime = 5 * vtime.Microsecond
	ls.Comm.MsgConstructTime = 2 * vtime.Microsecond
	show("actual sizes + low startup:", speedups(pcxx.ActualSize, ls))
	fmt.Println("\nAll of the above ran on one (virtual) processor — no parallel machine required.")
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
