// Package machine provides target execution-environment presets — named
// bundles of simulation parameters that describe the machines used in the
// paper's experiments — and the processor microbenchmark that derives the
// MipsRatio scaling factor (Table 3).
package machine

import (
	"fmt"
	"slices"
	"sort"

	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/vtime"
)

// Env names a target execution environment and its simulation
// configuration. Env values are templates: experiments copy and adjust
// them (processor counts, single parameters under study).
type Env struct {
	// Name identifies the environment ("cm5", "generic-dm", ...).
	Name string
	// Description is a one-line summary for reports.
	Description string
	// Config is the simulation parameter set.
	Config sim.Config
}

// GenericDM is the Figure 4 parameter set: a distributed-memory platform
// with modest 20 MB/s links but relatively high communication overheads
// and synchronization costs.
func GenericDM() Env {
	return Env{
		Name:        "generic-dm",
		Description: "distributed memory, 20 MB/s links, high startup and sync costs",
		Config: sim.Config{
			MipsRatio: 1.0,
			Policy: sim.Policy{
				Kind:              sim.Interrupt,
				InterruptOverhead: 10 * vtime.Microsecond,
				ServiceTime:       15 * vtime.Microsecond,
			},
			Comm: network.Config{
				StartupTime:      100 * vtime.Microsecond,
				ByteTransferTime: 50 * vtime.Nanosecond, // 20 MB/s
				MsgConstructTime: 10 * vtime.Microsecond,
				HopTime:          500 * vtime.Nanosecond,
				RecvOverhead:     10 * vtime.Microsecond,
				RecvOccupancy:    2 * vtime.Microsecond,
				Topology:         network.Mesh2D{},
				ContentionFactor: 0.05,
				RequestBytes:     16,
			},
			Barrier: sim.DefaultBarrier(),
		},
	}
}

// SharedMem approximates a shared-memory platform: 200 MB/s remote data
// access, tiny startup, flag-based barriers.
func SharedMem() Env {
	return Env{
		Name:        "shared-mem",
		Description: "shared memory, 200 MB/s remote access, flag barriers",
		Config: sim.Config{
			MipsRatio: 1.0,
			Policy: sim.Policy{
				Kind:        sim.Interrupt,
				ServiceTime: 2 * vtime.Microsecond,
			},
			Comm: network.Config{
				StartupTime:      2 * vtime.Microsecond,
				ByteTransferTime: 5 * vtime.Nanosecond, // 200 MB/s
				MsgConstructTime: 500 * vtime.Nanosecond,
				RecvOverhead:     1 * vtime.Microsecond,
				RecvOccupancy:    200 * vtime.Nanosecond,
				Topology:         network.Bus{},
				ContentionFactor: 0.02,
				RequestBytes:     16,
			},
			Barrier: sim.BarrierConfig{
				Algorithm:     sim.LinearBarrier,
				EntryTime:     2 * vtime.Microsecond,
				ExitTime:      2 * vtime.Microsecond,
				CheckTime:     1 * vtime.Microsecond,
				ExitCheckTime: 1 * vtime.Microsecond,
				ModelTime:     4 * vtime.Microsecond,
				ByMsgs:        false,
			},
		},
	}
}

// CM5 is the Table 3 parameter set used for the Matmul validation:
// MipsRatio 0.41 (Sun-4 1.1360 MFLOPS → CM-5 2.7645 MFLOPS),
// CommStartupTime 10 µs, ByteTransferTime 0.118 µs (8.5 MB/s),
// BarrierModelTime 5 µs, fat-tree data network, active-message
// (interrupt) request service.
func CM5() Env {
	return Env{
		Name:        "cm5",
		Description: "Thinking Machines CM-5 (Table 3 parameters, fat tree, active messages)",
		Config: sim.Config{
			MipsRatio: 0.41,
			Policy: sim.Policy{
				Kind:              sim.Interrupt,
				InterruptOverhead: 3 * vtime.Microsecond,
				ServiceTime:       5 * vtime.Microsecond,
			},
			Comm: network.Config{
				StartupTime:      10 * vtime.Microsecond,
				ByteTransferTime: vtime.FromMicros(0.118), // 8.5 MB/s
				MsgConstructTime: 2 * vtime.Microsecond,
				HopTime:          200 * vtime.Nanosecond,
				RecvOverhead:     3 * vtime.Microsecond,
				RecvOccupancy:    1 * vtime.Microsecond,
				Topology:         network.FatTree{},
				ContentionFactor: 0.03,
				RequestBytes:     16,
			},
			// The CM-5's dedicated control network synchronizes without
			// data-network messages, so the barrier model runs with
			// BarrierByMsgs = 0 and the Table 3 BarrierModelTime.
			Barrier: sim.BarrierConfig{
				Algorithm:     sim.LinearBarrier,
				EntryTime:     1 * vtime.Microsecond,
				ExitTime:      1 * vtime.Microsecond,
				CheckTime:     1 * vtime.Microsecond,
				ExitCheckTime: 1 * vtime.Microsecond,
				ModelTime:     5 * vtime.Microsecond, // BarrierModelTime, Table 3
				ByMsgs:        false,
			},
		},
	}
}

// Ideal is the zero-cost environment of the Figure 5 study: all
// synchronization and communication costs are null, leaving only the
// translated computation.
func Ideal() Env {
	return Env{
		Name:        "ideal",
		Description: "free communication and synchronization (upper bound)",
		Config: sim.Config{
			MipsRatio: 1.0,
			Policy:    sim.Policy{Kind: sim.Interrupt},
			Comm: network.Config{
				Topology: network.Bus{},
			},
			Barrier: sim.BarrierConfig{Algorithm: sim.LinearBarrier},
		},
	}
}

// presets is the built-in environment table, built and sorted once.
// Env holds no references a caller could mutate through, so handing out
// copies of its entries is safe.
var presets = func() []Env {
	envs := []Env{GenericDM(), SharedMem(), CM5(), Ideal()}
	sort.Slice(envs, func(i, j int) bool { return envs[i].Name < envs[j].Name })
	return envs
}()

// Presets returns the built-in environments, sorted by name.
func Presets() []Env { return slices.Clone(presets) }

// ByName returns the preset with the given name.
func ByName(name string) (Env, error) {
	for _, e := range presets {
		if e.Name == name {
			return e, nil
		}
	}
	return Env{}, fmt.Errorf("machine: unknown environment %q", name)
}

// MeasureMFLOPS runs the paper's floating-point microbenchmark against a
// cost model: a synthetic loop of flops timed on the virtual clock. It is
// how the MipsRatio entries of Table 3 are derived here, mirroring how the
// authors measured the Sun 4 and the CM-5 node.
func MeasureMFLOPS(cost pcxx.CostModel) float64 {
	const flops = 100000
	clock := vtime.NewVirtualClock(0)
	acc := 1.0
	for i := 0; i < flops/2; i++ {
		// The arithmetic itself is real (kept live through acc); the
		// duration comes from the cost model, exactly like the original
		// benchmark's measured wall time.
		acc = acc*1.0000001 + 0.0000001
		clock.Advance(2 * cost.FlopTime)
	}
	_ = acc
	secs := clock.Now().Seconds()
	if secs <= 0 {
		return 0
	}
	return flops / secs / 1e6
}

// DeriveMipsRatio returns the computation scaling factor between a
// measurement host and a target: host MFLOPS / target MFLOPS.
func DeriveMipsRatio(host, target pcxx.CostModel) float64 {
	th := MeasureMFLOPS(host)
	tt := MeasureMFLOPS(target)
	if tt == 0 {
		return 0
	}
	return th / tt
}
