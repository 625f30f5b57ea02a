package sim

import (
	"context"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/sim/network"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// neighborTrace builds a program where each thread reads its ring
// neighbor — the communication pattern whose cost depends on placement.
func neighborTrace(t *testing.T, n int) *translate.ParallelTrace {
	t.Helper()
	return measureWithSetup(t, n, func(rt *pcxx.Runtime) func(*pcxx.Thread) {
		c := pcxx.PerThread[float64](rt, "c", 1024)
		return func(th *pcxx.Thread) {
			*c.Local(th, th.ID()) = 1
			th.Barrier()
			for i := 0; i < 4; i++ {
				_ = c.Read(th, (th.ID()+1)%n)
				th.Barrier()
			}
		}
	})
}

func TestPlacementString(t *testing.T) {
	if BlockPlacement.String() != "block" || CyclicPlacement.String() != "cyclic" {
		t.Error("placement names wrong")
	}
}

func TestPlacementAffectsClusterLocality(t *testing.T) {
	// 8 threads on 8 processors in two clusters of 4. Under block
	// placement, ring neighbors mostly share a cluster (6 of 8 reads are
	// intra-cluster); under cyclic placement neighbors alternate
	// clusters, making every read inter-cluster... with 8 procs and
	// cluster size 4, cyclic places thread i on proc i%8 = i — identical
	// to block. Use 4 processors (2 threads each) instead: block puts
	// threads {0,1}, {2,3}, ... together; cyclic puts {0,4}, {1,5}, ...
	pt := neighborTrace(t, 8)
	cfg := zeroConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	cfg.Comm = network.Config{
		StartupTime:      100 * vtime.Microsecond,
		ByteTransferTime: 100 * vtime.Nanosecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	cfg.IntraComm = network.Config{
		StartupTime:      1 * vtime.Microsecond,
		ByteTransferTime: 5 * vtime.Nanosecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	cfg.Policy = Policy{Kind: Interrupt, ServiceTime: 5 * vtime.Microsecond}

	run := func(p Placement) vtime.Time {
		c := cfg
		c.Placement = p
		res, err := Simulate(context.Background(), pt, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	block, cyclic := run(BlockPlacement), run(CyclicPlacement)
	// Block placement keeps ring neighbors on the same processor or
	// cluster more often, so it must be at least as fast here.
	if block >= cyclic {
		t.Errorf("block placement (%v) not faster than cyclic (%v) for ring traffic", block, cyclic)
	}
}

func TestPlacementCoversAllProcs(t *testing.T) {
	for _, p := range []Placement{BlockPlacement, CyclicPlacement} {
		seen := map[int]int{}
		for i := 0; i < 16; i++ {
			seen[placeThread(p, i, 16, 4, 4)]++
		}
		if len(seen) != 4 {
			t.Errorf("%v: threads landed on %d processors, want 4", p, len(seen))
		}
		for proc, count := range seen {
			if count != 4 {
				t.Errorf("%v: proc %d has %d threads, want 4", p, proc, count)
			}
		}
	}
}
