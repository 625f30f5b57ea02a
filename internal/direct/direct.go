// Package direct is the validation comparator: a direct machine simulator
// that stands in for the physical CM-5 of the paper's Section 4.2. Where
// the ExtraP pipeline predicts performance from high-level component
// models (linear master-slave barrier, explicit message events, analytical
// contention sampled from simulator state), this package computes
// execution times with a deliberately different structure — epoch-based
// processing, a dissemination-style barrier cost, a load-dependent latency
// model, and deterministic run-to-run jitter — so that comparing the two
// (Figure 9) tests whether extrapolation reproduces the ranking and shape
// a differently built "machine" produces. Both sides time the same
// translation of the measured trace (translate.Translate) and share
// nothing after it, so a translation fault reaches both.
//
// Substitution note (also recorded in DESIGN.md): the paper validated
// against real CM-5 runs; no CM-5 exists here, so the closest faithful
// equivalent is an independent simulator parameterized with the same
// published CM-5 characteristics.
package direct

import (
	"fmt"

	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Config parameterizes the machine.
type Config struct {
	// FlopScale scales measured compute time to the target processor
	// (0.41 for Sun 4 → CM-5, like MipsRatio).
	FlopScale float64
	// MsgBase is the fixed one-way message latency (software + network).
	MsgBase vtime.Time
	// PerByte is the payload cost per byte.
	PerByte vtime.Time
	// ServiceCost is the owner-side handling cost per request; it is
	// charged to the owner as a debt that delays its next barrier entry.
	ServiceCost vtime.Time
	// BarrierBase and BarrierPerLevel give the dissemination barrier cost
	// base + levels·log₂(n).
	BarrierBase     vtime.Time
	BarrierPerLevel vtime.Time
	// LoadFactor inflates message latency by 1 + LoadFactor·(epoch
	// messages / threads) — a bulk contention model.
	LoadFactor float64
	// JitterPct adds deterministic pseudo-random jitter of ±JitterPct to
	// compute and message costs, imitating real-machine variability.
	JitterPct float64
	// Seed drives the jitter stream.
	Seed uint64
}

// CM5 returns the comparator tuned with the published CM-5
// characteristics (Kwan/Totty/Reed and the CM-5 technical summary): ~2.4×
// the Sun 4 scalar speed, ~34 µs round-trip active-message latency for
// small requests, 8.5 MB/s point-to-point bandwidth, and a fast
// hardware-assisted control-network barrier. The magnitudes deliberately
// match the same published sources the Table 3 extrapolation parameters
// come from — the comparison then probes the *structural* differences
// (bulk contention, service debt, barrier shape, jitter), as comparing
// against a real machine parameterized by the same documents would.
func CM5() Config {
	return Config{
		FlopScale:       0.41,
		MsgBase:         17 * vtime.Microsecond,
		PerByte:         vtime.FromMicros(0.118),
		ServiceCost:     5 * vtime.Microsecond,
		BarrierBase:     12 * vtime.Microsecond,
		BarrierPerLevel: 4 * vtime.Microsecond,
		LoadFactor:      0.04,
		JitterPct:       0.02,
		Seed:            0xc35,
	}
}

// Result is the comparator's predicted run.
type Result struct {
	// TotalTime is the simulated parallel execution time.
	TotalTime vtime.Time
	// PerThread is each thread's finish time.
	PerThread []vtime.Time
	// Messages is the total remote requests processed.
	Messages int64
	// Barriers is the number of global barriers.
	Barriers int
}

// Run simulates the measurement trace on the direct machine model. The
// trace must come from the instrumented 1-processor run (the same input
// the ExtraP pipeline consumes).
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	if cfg.FlopScale < 0 || cfg.LoadFactor < 0 || cfg.JitterPct < 0 {
		return nil, fmt.Errorf("direct: negative parameter in %+v", cfg)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		return nil, err
	}
	n := pt.NumThreads
	jitter := vtime.NewRand(cfg.Seed)
	jit := func(t vtime.Time) vtime.Time {
		if cfg.JitterPct == 0 {
			return t
		}
		f := 1 + float64(cfg.JitterPct*(float64(2*jitter.Float64())-1))
		return t.Scale(f)
	}

	// Split each thread's events into barrier epochs: the segments
	// between consecutive barrier entries. All threads have the same
	// epoch count (global barriers).
	type cursor struct {
		evs  []trace.Event
		pos  int
		now  vtime.Time
		prev vtime.Time // translated time of previous event
		debt vtime.Time // accumulated service work owed before next entry
	}
	cur := make([]*cursor, n)
	for i := range cur {
		c := &cursor{evs: pt.Threads[i]}
		if len(c.evs) > 0 {
			c.prev = c.evs[0].Time
		}
		cur[i] = c
	}

	res := &Result{PerThread: make([]vtime.Time, n), Barriers: pt.Barriers}
	levels := log2ceil(n)

	for epoch := 0; ; epoch++ {
		// Pass 1: count the epoch's messages for the bulk load model.
		var epochMsgs int64
		for _, c := range cur {
			for p := c.pos; p < len(c.evs); p++ {
				e := c.evs[p]
				if e.Kind == trace.KindBarrierEntry {
					break
				}
				if e.IsRemote() {
					epochMsgs++
				}
			}
		}
		load := 1.0
		if n > 0 {
			load = 1 + cfg.LoadFactor*float64(epochMsgs)/float64(n)
		}

		// Pass 2: advance every thread to its next barrier entry (or to
		// the end of its trace).
		anyBarrier := false
		var maxEntry vtime.Time
		for ti, c := range cur {
			atBarrier := false
			for c.pos < len(c.evs) {
				e := c.evs[c.pos]
				delta := (e.Time - c.prev).Scale(cfg.FlopScale)
				c.now += jit(delta)
				c.prev = e.Time
				switch e.Kind {
				case trace.KindBarrierEntry:
					c.pos++
					atBarrier = true
				case trace.KindRemoteRead:
					lat := cfg.MsgBase*2 + vtime.Time(e.Arg1)*cfg.PerByte
					c.now += jit(lat.Scale(load))
					cur[e.Arg0].debt += cfg.ServiceCost
					res.Messages++
					c.pos++
				case trace.KindRemoteWrite:
					lat := cfg.MsgBase + vtime.Time(e.Arg1)*cfg.PerByte
					c.now += jit(lat.Scale(load))
					cur[e.Arg0].debt += cfg.ServiceCost
					res.Messages++
					c.pos++
				default:
					c.pos++
				}
				if atBarrier {
					break
				}
			}
			if atBarrier {
				anyBarrier = true
				// Service debt delays the barrier entry: the requests the
				// thread handled had to run on its processor.
				c.now += c.debt
				c.debt = 0
				if c.now > maxEntry {
					maxEntry = c.now
				}
			} else {
				res.PerThread[ti] = c.now
			}
		}
		if !anyBarrier {
			break
		}
		// Dissemination barrier: release log₂(n) exchange rounds after
		// the last arrival; everyone leaves together and consumes the
		// barrier-exit event.
		release := maxEntry + cfg.BarrierBase + vtime.Time(levels)*cfg.BarrierPerLevel
		for _, c := range cur {
			c.now = release
			if c.pos < len(c.evs) && c.evs[c.pos].Kind == trace.KindBarrierExit {
				c.prev = c.evs[c.pos].Time
				c.pos++
			}
		}
	}

	for _, t := range res.PerThread {
		if t > res.TotalTime {
			res.TotalTime = t
		}
	}
	return res, nil
}

// log2ceil returns ceil(log2(n)) for n ≥ 1.
func log2ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}
