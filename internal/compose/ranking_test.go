package compose

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"extrap/internal/core"
	"extrap/internal/direct"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/vtime"
)

// rankedMachine pairs one target machine's parameters for both
// predictors: the trace-driven simulator (sim.Config) and the
// analytical direct comparator (direct.Config). The three machines
// differ decisively on one axis each, so both models must order them
// the same way for any workload — that agreement, not absolute
// accuracy, is what the paper's Section 4.2 validation establishes for
// the kernels and what this test extends to composed patterns.
type rankedMachine struct {
	name string
	sim  sim.Config
	dir  direct.Config
}

// rankingMachines builds the 3-machine set from the CM-5 baselines:
// the baseline, a machine with 8× slower communication, and a machine
// with 6× slower processors.
func rankingMachines() []rankedMachine {
	base := machine.CM5().Config
	dbase := direct.CM5()

	slowNet := base
	slowNet.Comm.StartupTime *= 8
	slowNet.Comm.ByteTransferTime *= 8
	dSlowNet := dbase
	dSlowNet.MsgBase *= 8
	dSlowNet.PerByte *= 8

	slowCPU := base
	slowCPU.MipsRatio *= 6
	dSlowCPU := dbase
	dSlowCPU.FlopScale *= 6

	return []rankedMachine{
		{name: "cm5", sim: base, dir: dbase},
		{name: "slow-net", sim: slowNet, dir: dSlowNet},
		{name: "slow-cpu", sim: slowCPU, dir: dSlowCPU},
	}
}

// ranking orders machine indices by a time vector, ascending; exact
// integer times make the order deterministic.
func ranking(times []vtime.Time) []int {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })
	return order
}

// TestExtrapolateDirectRankingAgreement measures one representative of
// each pattern family and asserts that the extrapolation pipeline and
// the independent direct model rank the 3-machine set identically.
func TestExtrapolateDirectRankingAgreement(t *testing.T) {
	families := []struct{ name, spec string }{
		{"pipeline", `{"size":64,"iters":2,"root":{"kind":"pipeline","message_bytes":512,"stages":[{"kind":"bsp","grain":16},{"kind":"bsp","grain":16},{"kind":"bsp","grain":16}]}}`},
		{"task_farm", `{"size":64,"root":{"kind":"task_farm","tasks":48,"grain":24,"imbalance":1}}`},
		{"stencil", `{"size":48,"root":{"kind":"stencil","width":48,"height":4,"sweeps":3,"grain":8,"message_bytes":256}}`},
		{"reduction", `{"size":64,"root":{"kind":"reduction","op":"flat","grain":32,"message_bytes":512}}`},
		{"bsp", `{"size":64,"root":{"kind":"bsp","supersteps":4,"grain":20,"message_bytes":1024}}`},
	}
	machines := rankingMachines()
	const threads = 8
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			w, err := FromJSON([]byte(fam.spec))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.Measure(w.Factory(w.DefaultSize())(threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
			if err != nil {
				t.Fatal(err)
			}
			pred := make([]vtime.Time, len(machines))
			act := make([]vtime.Time, len(machines))
			for mi, m := range machines {
				outc, err := core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), m.sim)
				if err != nil {
					t.Fatalf("%s: extrapolate: %v", m.name, err)
				}
				pred[mi] = outc.Result.TotalTime
				res, err := direct.Run(tr, m.dir)
				if err != nil {
					t.Fatalf("%s: direct: %v", m.name, err)
				}
				act[mi] = res.TotalTime
			}
			pr, ar := ranking(pred), ranking(act)
			if fmt.Sprint(pr) != fmt.Sprint(ar) {
				names := func(order []int) []string {
					out := make([]string, len(order))
					for i, mi := range order {
						out[i] = machines[mi].name
					}
					return out
				}
				t.Errorf("ranking disagreement:\n  extrapolated: %v (%v)\n  direct:       %v (%v)",
					names(pr), pred, names(ar), act)
			}
		})
	}
}
