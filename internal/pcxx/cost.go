package pcxx

import "extrap/internal/vtime"

// CostModel converts abstract operation counts into virtual computation
// time on the measurement host. The original ExtraP measured real Sun-4
// wall time between events; this repository instead charges a
// deterministic per-operation cost so that runs are exactly reproducible
// while the magnitudes (µs–ms compute phases) stay realistic. Benchmarks
// perform their real arithmetic *and* charge the model, so correctness
// checks and timing coexist.
type CostModel struct {
	// FlopTime is charged per floating-point operation.
	FlopTime vtime.Time
	// IntOpTime is charged per integer/control operation.
	IntOpTime vtime.Time
	// MemByteTime is charged per byte moved through the local memory
	// system (copies, initialization).
	MemByteTime vtime.Time
	// CallTime is the overhead of one runtime call (method invocation).
	// No runtime operation charges it; it is part of a measurement's
	// cache key.
	CallTime vtime.Time
}

// Sun4 returns the cost model of the paper's measurement host: a Sun 4
// rated at 1.1360 MFLOPS by the paper's floating-point microbenchmark,
// i.e. ~880 ns per flop. Integer and memory costs are scaled to typical
// SPARC-era ratios.
func Sun4() CostModel {
	return CostModel{
		FlopTime:    880 * vtime.Nanosecond,
		IntOpTime:   150 * vtime.Nanosecond,
		MemByteTime: 25 * vtime.Nanosecond,
		CallTime:    2 * vtime.Microsecond,
	}
}

// CM5Node returns a cost model matching the CM-5 scalar rating the paper
// measured (2.7645 MFLOPS ⇒ ~362 ns per flop). It is used by the
// direct-execution comparator, not by the measurement run.
func CM5Node() CostModel {
	return CostModel{
		FlopTime:    362 * vtime.Nanosecond,
		IntOpTime:   60 * vtime.Nanosecond,
		MemByteTime: 10 * vtime.Nanosecond,
		CallTime:    800 * vtime.Nanosecond,
	}
}
