// Package extrap is the public face of the performance-extrapolation
// library — a reproduction of Shanmugam, Malony, and Mohr, "Performance
// Extrapolation of Parallel Programs" (ICPP 1995).
//
// Performance extrapolation predicts the performance of an n-thread
// data-parallel program on an n-processor target machine from a single
// measurement of the program run with n threads on one processor:
//
//	program ──Measure──▶ trace ──(Translate+Simulate)──▶ prediction
//
// The three stages are:
//
//  1. Measure: run the program under the instrumented non-preemptive
//     runtime (package internal/pcxx); record barrier and remote-access
//     events with virtual timestamps.
//  2. Translate: adjust timestamps to an idealized parallel execution
//     (package internal/translate).
//  3. Simulate: replay the translated traces against models of the
//     target's processors, network, and barriers (package internal/sim).
//
// This package re-exports the pipeline for library users; the richer
// knobs live in the internal packages, and the cmd/extrap CLI exposes the
// full experiment suite.
package extrap

import (
	"context"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/sim"
	"extrap/internal/trace"
)

// Program is an instrumentable data-parallel program.
type Program = core.Program

// MeasureOptions configures the 1-processor measurement run.
type MeasureOptions = core.MeasureOptions

// Prediction is the outcome of one extrapolation: the measured
// 1-processor time, the ideal translated parallel time, and the
// simulation result.
type Prediction = core.Prediction

// Trace is a measurement or extrapolated event trace.
type Trace = trace.Trace

// Env is a named target execution environment.
type Env = machine.Env

// Result is a simulation result (predicted performance information).
type Result = sim.Result

// Config is a target-environment model configuration.
type Config = sim.Config

// Point is one (processors, time) sample of a scaling study.
type Point = metrics.Point

// Measure runs the program under the instrumented 1-processor runtime
// and returns the measurement trace.
func Measure(p Program, opts MeasureOptions) (*Trace, error) {
	return core.Measure(p, opts)
}

// Extrapolate translates a measurement trace and simulates it in the
// target environment.
func Extrapolate(tr *Trace, cfg Config) (*Prediction, error) {
	return core.ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
}

// Environments returns the built-in target environment presets
// (generic-dm, shared-mem, cm5, ideal).
func Environments() []Env { return machine.Presets() }

// Environment looks up a preset by name.
func Environment(name string) (Env, error) { return machine.ByName(name) }

// BenchmarkNames lists the bundled pC++ benchmark suite (Table 2 plus the
// Matmul validation program).
func BenchmarkNames() []string {
	var out []string
	for _, b := range benchmarks.All() {
		out = append(out, b.Name())
	}
	return out
}

// Speedup computes per-point speedup relative to the smallest processor
// count in the series.
func Speedup(points []Point) []float64 { return metrics.Speedup(points) }
