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
	"extrap/internal/trace"
)

func init() {
	register(Experiment{ID: "table1", Title: "Barrier model parameters and their effect", Run: runTable1})
	register(Experiment{ID: "table2", Title: "pC++ benchmark suite inventory", Run: runTable2})
	register(Experiment{ID: "table3", Title: "CM-5 parameter derivation", Run: runTable3})
}

// runTable1 reproduces Table 1 — the barrier model's parameters — and
// adds a sensitivity sweep: each parameter quadrupled in turn on a
// barrier-heavy workload to demonstrate its operation.
func runTable1(opts Options) (*Output, error) {
	out := &Output{ID: "table1", Title: "Barrier model parameters"}

	def := sim.DefaultBarrier()
	params := report.Table{
		Title:   "Table 1: parameters for the barrier model",
		Columns: []string{"parameter", "description", "example"},
	}
	params.AddRow("EntryTime", "time for each thread to enter a barrier", def.EntryTime.String())
	params.AddRow("ExitTime", "time to come out of the lowered barrier", def.ExitTime.String())
	params.AddRow("CheckTime", "master's cost per arrival check", def.CheckTime.String())
	params.AddRow("ExitCheckTime", "slave's cost per release check", def.ExitCheckTime.String())
	params.AddRow("ModelTime", "master's cost to start lowering the barrier", def.ModelTime.String())
	params.AddRow("BarrierByMsgs", "1: synchronize with real messages", fmt.Sprintf("%v", def.ByMsgs))
	params.AddRow("BarrierMsgSize", "barrier message size", fmt.Sprintf("%d", def.MsgSize))
	out.Tables = append(out.Tables, params)

	// Sensitivity: a barrier-dominated microworkload (cyclic at a small
	// size) with each parameter amplified.
	cy, err := benchmarks.ByName("cyclic")
	if err != nil {
		return nil, err
	}
	size := benchmarks.Size{N: 128, Iters: 2}
	n := opts.procs()[len(opts.procs())-1]
	baseCfg := machine.GenericDM().Config
	// One measurement and translation back every variant simulation.
	r := newRunner(opts)
	basePt, err := r.translated(cy.Name(), size, n,
		core.MeasureOptions{SizeMode: pcxx.ActualSize}, cy.Factory(size))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	baseRes, err := sim.Simulate(ctx, basePt, baseCfg)
	if err != nil {
		return nil, err
	}

	sens := report.Table{
		Title:   "Barrier parameter sensitivity (cyclic microworkload, ×4 each)",
		Columns: []string{"parameter", "baseline", "amplified", "time delta"},
	}
	variants := []struct {
		name   string
		mutate func(*sim.BarrierConfig)
	}{
		{"EntryTime", func(b *sim.BarrierConfig) { b.EntryTime *= 4 }},
		{"ExitTime", func(b *sim.BarrierConfig) { b.ExitTime *= 4 }},
		{"CheckTime", func(b *sim.BarrierConfig) { b.CheckTime *= 4 }},
		{"ExitCheckTime", func(b *sim.BarrierConfig) { b.ExitCheckTime *= 4 }},
		{"ModelTime", func(b *sim.BarrierConfig) { b.ModelTime *= 4 }},
		{"BarrierMsgSize", func(b *sim.BarrierConfig) { b.MsgSize *= 16 }},
		{"BarrierByMsgs→0", func(b *sim.BarrierConfig) { b.ByMsgs = false }},
	}
	results := make([]*sim.Result, len(variants))
	err = r.each(len(variants), func(i int) error {
		cfg := baseCfg
		variants[i].mutate(&cfg.Barrier)
		res, err := sim.Simulate(ctx, basePt, cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		delta := results[i].TotalTime - baseRes.TotalTime
		sens.AddRow(v.name, baseRes.TotalTime.String(), results[i].TotalTime.String(), delta.String())
	}
	out.Tables = append(out.Tables, sens)
	return out, nil
}

// runTable2 reproduces Table 2 — the benchmark suite — augmented with
// measured trace statistics and the verification status of each code.
func runTable2(opts Options) (*Output, error) {
	out := &Output{ID: "table2", Title: "pC++ benchmark codes used for extrapolation studies"}
	tab := report.Table{
		Title: "Table 2: benchmark suite",
		Columns: []string{"benchmark", "description", "events", "barriers",
			"remote reads", "remote KB", "1-proc time", "verified"},
	}
	n := 8
	if opts.Quick {
		n = 4
	}
	// Every benchmark measures independently; verification failures are
	// rows, not errors, so the fan-out collects per-benchmark outcomes.
	suite := benchmarks.Suite()
	r := newRunner(opts)
	type row struct {
		tr  *trace.Trace
		err error
	}
	rows := make([]row, len(suite))
	_ = r.each(len(suite), func(i int) error {
		size := opts.size(suite[i])
		size.Verify = true
		rows[i].tr, rows[i].err = r.measured(suite[i].Name(), size, n,
			core.MeasureOptions{SizeMode: pcxx.ActualSize}, suite[i].Factory(size))
		return nil
	})
	for i, b := range suite {
		if rows[i].err != nil {
			tab.AddRow(b.Name(), b.Description(), "-", "-", "-", "-", "-", "FAILED: "+rows[i].err.Error())
			continue
		}
		s := trace.ComputeStats(rows[i].tr)
		tab.AddRow(b.Name(), b.Description(), s.Events, s.Barriers,
			s.RemoteReads, s.RemoteBytes/1024, s.Duration.String(), "yes")
	}
	out.Tables = append(out.Tables, tab)
	return out, nil
}

// runTable3 reproduces Table 3: the CM-5 parameter set, with the
// MipsRatio derived by the MFLOPS microbenchmark exactly as the authors
// derived theirs (Sun-4 1.1360 / CM-5 2.7645 ≈ 0.41).
func runTable3(Options) (*Output, error) {
	out := &Output{ID: "table3", Title: "Parameters used for matching CM-5 characteristics"}

	sun := machine.MeasureMFLOPS(pcxx.Sun4())
	cm5 := machine.MeasureMFLOPS(pcxx.CM5Node())
	ratio := machine.DeriveMipsRatio(pcxx.Sun4(), pcxx.CM5Node())
	mflops := report.Table{
		Title:   "Processor microbenchmark",
		Columns: []string{"machine", "MFLOPS (measured)", "paper"},
	}
	mflops.AddRow("Sun 4 (measurement host)", fmt.Sprintf("%.4f", sun), "1.1360")
	mflops.AddRow("CM-5 node (scalar)", fmt.Sprintf("%.4f", cm5), "2.7645")
	mflops.AddRow("MipsRatio (host/target)", fmt.Sprintf("%.2f", ratio), "0.41")

	env := machine.CM5()
	params := report.Table{
		Title:   "Table 3: CM-5 extrapolation parameters",
		Columns: []string{"parameter", "value", "paper"},
	}
	params.AddRow("BarrierModelTime", env.Config.Barrier.ModelTime.String(), "5.0 µsec")
	params.AddRow("CommStartupTime", env.Config.Comm.StartupTime.String(), "10.0 µsec")
	params.AddRow("ByteTransferTime", env.Config.Comm.ByteTransferTime.String(),
		"0.118 µsec (8.5 Mbytes/second)")
	params.AddRow("MipsRatio", fmt.Sprintf("%.2f", env.Config.MipsRatio), "0.41")
	params.AddRow("bandwidth", fmt.Sprintf("%.1f MB/s", env.Config.Comm.BandwidthMBps()), "8.5 MB/s")
	params.AddRow("topology", "fat tree (4-ary)", "CM-5 data network")

	out.Tables = append(out.Tables, mflops, params)
	return out, nil
}
