// Package vtime provides the virtual-time base used by every component of
// the extrapolation system: a nanosecond-resolution Time type, clocks, and
// a deterministic pseudo-random source.
//
// All timestamps in traces, models, and simulation results are vtime.Time
// values. Integer nanoseconds (rather than float64 microseconds, which the
// original ExtraP used) make every pipeline stage exactly reproducible:
// there is no accumulation-order sensitivity, and equality comparisons in
// tests are meaningful.
package vtime

import "fmt"

// Time is a point in virtual time (or a duration between two such points),
// measured in integer nanoseconds since the start of the run.
type Time int64

// Common unit multipliers.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel larger than any reachable simulation time.
const Forever Time = 1<<63 - 1

// Micros converts t to floating-point microseconds, the unit the original
// paper reports in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros builds a Time from floating-point microseconds, rounding to
// the nearest nanosecond. Model parameters in the paper are given in µs.
func FromMicros(us float64) Time {
	if us < 0 {
		return Time(float64(us*float64(Microsecond)) - 0.5)
	}
	return Time(float64(us*float64(Microsecond)) + 0.5)
}

// Scale multiplies t by the dimensionless factor f, rounding to the
// nearest nanosecond. It is the primitive behind MipsRatio scaling.
func (t Time) Scale(f float64) Time {
	v := float64(float64(t) * f) // rounded, so ±0.5 cannot fuse into it
	if v < 0 {
		return Time(v - 0.5)
	}
	return Time(v + 0.5)
}

// String renders t with an adaptive unit, e.g. "12.345ms" or "870ns".
func (t Time) String() string {
	switch {
	case t == Forever:
		return "∞"
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// VirtualClock is a source of virtual time that a running computation
// advances: a counter. The 1-processor measurement runtime advances a
// single global VirtualClock. The zero value is a clock at time 0,
// ready to use.
type VirtualClock struct {
	now Time
}

// NewVirtualClock returns a clock starting at the given time.
func NewVirtualClock(start Time) *VirtualClock { return &VirtualClock{now: start} }

// Now reports the current virtual time.
func (c *VirtualClock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative advances panic: a clock
// that moves backwards indicates a bug in a cost model, and silently
// accepting it would corrupt every downstream timestamp.
func (c *VirtualClock) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative clock advance %d", d))
	}
	c.now += d
}
