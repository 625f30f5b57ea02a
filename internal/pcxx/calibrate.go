package pcxx

import (
	"time"

	"extrap/internal/vtime"
)

// CalibrateHost measures the machine this code runs on with a wall-clock
// floating-point microbenchmark — the same procedure the paper used to
// rate its Sun 4 at 1.1360 MFLOPS — and returns a CostModel whose FlopTime
// matches the measured rate. It lets a user treat their real machine as
// the measurement host when charging computation costs, or derive a
// MipsRatio between their machine and any modeled target.
//
// The result is inherently non-deterministic (it measures real hardware);
// everything else in this repository stays deterministic by using the
// fixed Sun4/CM5Node models instead.
func CalibrateHost() CostModel {
	const flops = 4_000_000
	acc := 1.0
	mul := 1.0000000001
	start := time.Now()
	for i := 0; i < flops/2; i++ {
		acc = float64(acc*mul) + 1e-12 // 2 flops per iteration, loop-carried
	}
	elapsed := time.Since(start)
	sink = acc // defeat dead-code elimination
	per := float64(elapsed.Nanoseconds()) / flops
	if per < 0.01 {
		per = 0.01 // clamp absurd timer resolution artifacts
	}
	flopTime := vtime.Time(per + 0.5)
	if flopTime < 1 {
		flopTime = 1
	}
	atLeast1 := func(t vtime.Time) vtime.Time {
		if t < 1 {
			return 1
		}
		return t
	}
	return CostModel{
		FlopTime:    flopTime,
		IntOpTime:   atLeast1(flopTime / 2),
		MemByteTime: atLeast1(flopTime / 8),
		CallTime:    atLeast1(flopTime * 20),
	}
}

// sink keeps calibration arithmetic observable to the compiler.
var sink float64
