package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/report"
	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/vtime"
)

func init() {
	register(Experiment{
		ID:    "ablation-cluster",
		Title: "Multi-cluster extension: shared memory within clusters, messages between",
		Run:   runAblationCluster,
	})
}

// runAblationCluster exercises the multi-clustered system the paper's
// Section 3.3.2 anticipates ("a multi-clustered system with shared memory
// access within a cluster and message passing between clusters"): the
// Grid benchmark on 16 processors grouped into clusters of 1 (pure
// distributed memory), 2, 4, 8, and 16 (pure shared memory), under both
// thread placements.
func runAblationCluster(opts Options) (*Output, error) {
	grid, err := benchmarks.ByName("grid")
	if err != nil {
		return nil, err
	}
	size := opts.size(grid)
	threads := 16
	if opts.Quick {
		threads = 8
	}

	intra := network.Config{
		StartupTime:      2 * vtime.Microsecond,
		ByteTransferTime: 5 * vtime.Nanosecond, // 200 MB/s shared memory
		MsgConstructTime: 500 * vtime.Nanosecond,
		RecvOverhead:     1 * vtime.Microsecond,
		RecvOccupancy:    200 * vtime.Nanosecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}

	out := &Output{ID: "ablation-cluster", Title: "Cluster size sweep (Grid)"}
	tab := report.Table{
		Title: fmt.Sprintf("Grid, %d threads on %d processors: cluster size × placement", threads, threads/2),
		Columns: []string{"cluster size", "placement", "time",
			"network msgs", "note"},
	}
	// One measurement and one translation feed every cell; only the
	// simulations fan out.
	r := newRunner(opts)
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	pt, err := r.translated(grid.Name(), size, threads, mopts, grid.Factory(size))
	if err != nil {
		return nil, err
	}
	// Multiplex two threads per processor so placement has something to
	// decide (with a 1:1 mapping both policies are the identity).
	procs := threads / 2
	type cell struct {
		cs  int
		pl  sim.Placement
		res *sim.Result
	}
	var cells []cell
	for _, cs := range []int{1, 2, 4, procs} {
		if cs > procs {
			continue
		}
		for _, pl := range []sim.Placement{sim.BlockPlacement, sim.CyclicPlacement} {
			cells = append(cells, cell{cs: cs, pl: pl})
		}
	}
	err = r.each(len(cells), func(i int) error {
		cfg := machine.GenericDM().Config
		cfg.Procs = procs
		cfg.ClusterSize = cells[i].cs
		cfg.IntraComm = intra
		cfg.Placement = cells[i].pl
		cfg.ContextSwitchTime = 10 * vtime.Microsecond
		res, err := sim.Simulate(context.Background(), pt, cfg)
		if err != nil {
			return err
		}
		cells[i].res = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		note := ""
		switch {
		case c.cs == 1:
			note = "pure distributed memory"
		case c.cs >= procs:
			note = "pure shared memory"
		}
		tab.AddRow(c.cs, c.pl.String(), c.res.TotalTime.String(), c.res.Net.Messages, note)
	}
	tab.Notes = []string{
		"larger clusters convert inter-processor reads into cheap shared-memory accesses;",
		"placement decides which neighbors land in the same cluster",
	}
	out.Tables = append(out.Tables, tab)
	return out, nil
}
