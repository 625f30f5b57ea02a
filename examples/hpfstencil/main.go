// Hpfstencil demonstrates the Section-5/6 claim that the extrapolation
// technique transfers to other language systems: an HPF-flavored front
// end (internal/hpfmini) with distributed arrays and FORALL statements
// runs a 1-D heat equation under BLOCK and CYCLIC distribution
// directives, and the same measure→translate→simulate pipeline predicts
// which directive to use on a distributed-memory machine.
//
//	go run ./examples/hpfstencil
package main

import (
	"context"
	"fmt"
	"log"

	"extrap/internal/core"
	"extrap/internal/hpfmini"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
)

func main() {
	const (
		n       = 256
		threads = 8
		steps   = 50
	)

	measure := func(d hpfmini.Dist) (*trace.Trace, float64) {
		rt := pcxx.NewRuntime(pcxx.DefaultConfig(threads))
		m := hpfmini.NewMachine(rt)
		u := m.Array("u", n, d)
		var checksum float64
		tr, err := rt.Run(func(th *pcxx.Thread) {
			// !HPF$ DISTRIBUTE u(BLOCK) / u(CYCLIC)
			hpfmini.Fill(th, u, func(i int) float64 {
				if i == n/2 {
					return 100 // heat spike in the middle
				}
				return 0
			})
			for s := 0; s < steps; s++ {
				// FORALL (i=1:n-2) u(i) = .25*u(i-1)+.5*u(i)+.25*u(i+1)
				hpfmini.Forall(th, u, 3, func(r hpfmini.Reader, i int) float64 {
					if i == 0 || i == n-1 {
						return 0
					}
					return float64(0.25*r.At(u, i-1)) + float64(0.5*r.At(u, i)) + float64(0.25*r.At(u, i+1))
				})
			}
			checksum = hpfmini.Sum(th, u)
		})
		if err != nil {
			log.Fatal(err)
		}
		return tr, checksum
	}

	fmt.Printf("1-D heat equation, n=%d, %d FORALL steps, %d threads\n\n", n, steps, threads)
	env := machine.GenericDM().Config
	for _, d := range []hpfmini.Dist{hpfmini.Block, hpfmini.Cyclic} {
		tr, sum := measure(d)
		s := trace.ComputeStats(tr)
		out, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), env)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DISTRIBUTE u(%s):\n", d)
		fmt.Printf("  heat checksum (physics unchanged): %.6f\n", sum)
		fmt.Printf("  remote element reads:              %d\n", s.RemoteReads)
		fmt.Printf("  predicted time on generic-dm:      %v\n\n", out.Result.TotalTime)
	}
	fmt.Println("Same physics, same front end, one measurement each — the extrapolation")
	fmt.Println("tells the HPF programmer that BLOCK is the right directive here.")
}
