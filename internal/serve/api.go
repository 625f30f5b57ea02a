package serve

import (
	"encoding/json"
	"net/http"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/machine"
	"extrap/internal/request"
)

// maxBodyBytes caps a public request body. Every other ceiling is the
// shared request contract's (package request).
const maxBodyBytes = 1 << 20

// ExtrapolateRequest asks for one prediction: measure benchmark at
// threads threads, translate, and simulate on machine with procs
// processors.
type ExtrapolateRequest struct {
	// Benchmark is a suite benchmark name (see GET /v1/benchmarks).
	// Exactly one of Benchmark / Workload must be set.
	Benchmark string `json:"benchmark,omitempty"`
	// Workload is an inline composed-workload spec — a nested tree of
	// parallel patterns synthesized into a program on the fly (see
	// GET /v1/patterns for the grammar and ceilings). The response's
	// benchmark field reports the workload's derived content name
	// ("wl:<hash>").
	Workload json.RawMessage `json:"workload,omitempty"`
	// Size is the problem dimension N; 0 selects the benchmark default.
	Size int `json:"size,omitempty"`
	// Iters is the iteration count; 0 selects the benchmark default.
	Iters int `json:"iters,omitempty"`
	// Threads is the measured thread count (≥ 1).
	Threads int `json:"threads"`
	// Procs is the simulated processor count; 0 means one per thread.
	// Must divide Threads.
	Procs int `json:"procs,omitempty"`
	// Machine is a target environment preset name (see GET /v1/machines).
	Machine string `json:"machine"`
}

// SweepRequest asks for a processor-scaling ladder: each ladder point n
// is measured with n threads and simulated on n processors of the
// target machine(s).
type SweepRequest struct {
	// Benchmark / Workload select the program, exactly as on
	// POST /v1/extrapolate: one of the two must be set.
	Benchmark string          `json:"benchmark,omitempty"`
	Workload  json.RawMessage `json:"workload,omitempty"`
	Size      int             `json:"size,omitempty"`
	Iters     int             `json:"iters,omitempty"`
	// Machine names a single target environment; the response is a
	// single curve (SweepResponse).
	Machine string `json:"machine,omitempty"`
	// Machines names several target environments to sweep against the
	// same measurements — the "measure once, ask many what-if questions"
	// shape: each ladder point is measured once and simulated under
	// every machine. The response is one curve per machine
	// (MultiSweepResponse). Exactly one of Machine / Machines must be
	// set.
	Machines []string `json:"machines,omitempty"`
	// Procs is the ladder; empty selects the paper's {1,2,4,8,16,32}.
	Procs []int `json:"procs,omitempty"`
	// Mode selects how ladder cells are produced: "" or "exact" (the
	// default) simulates every cell; "fitted" simulates a sparse anchor
	// subset and fits an analytic scaling curve over it, answering the
	// remaining cells from the fit with per-point provenance and ±
	// uncertainty intervals. Fitted ladders may hold up to
	// request.MaxFittedLadderLen entries.
	Mode string `json:"mode,omitempty"`
}

// BreakdownJSON is the predicted activity share of total thread time.
type BreakdownJSON struct {
	Compute     float64 `json:"compute"`
	CommWait    float64 `json:"comm_wait"`
	BarrierWait float64 `json:"barrier_wait"`
	Service     float64 `json:"service"`
	CPUWait     float64 `json:"cpu_wait"`
}

// ExtrapolateResponse is one prediction. Every field is derived from the
// deterministic pipeline, so identical requests produce byte-identical
// responses regardless of concurrency or cache state.
type ExtrapolateResponse struct {
	Benchmark    string        `json:"benchmark"`
	Machine      string        `json:"machine"`
	Size         int           `json:"size"`
	Iters        int           `json:"iters"`
	Threads      int           `json:"threads"`
	Procs        int           `json:"procs"`
	Measured1PMs float64       `json:"measured_1p_ms"`
	IdealMs      float64       `json:"ideal_ms"`
	PredictedMs  float64       `json:"predicted_ms"`
	Speedup      float64       `json:"speedup"`
	Barriers     int           `json:"barriers"`
	Messages     int64         `json:"messages"`
	Breakdown    BreakdownJSON `json:"breakdown"`
}

// SweepPoint is one ladder entry of a sweep response. Source and
// IntervalMs are present only in fitted-mode responses — exact sweeps
// omit them, keeping exact bytes identical to every prior release.
type SweepPoint struct {
	Procs       int     `json:"procs"`
	PredictedMs float64 `json:"predicted_ms"`
	Speedup     float64 `json:"speedup"`
	Efficiency  float64 `json:"efficiency"`
	// Source is the cell's provenance in a fitted sweep: "simulated"
	// (an anchor — the value is the exact pipeline output) or "fitted"
	// (the value is the analytic fit's evaluation).
	Source string `json:"source,omitempty"`
	// IntervalMs is the ± half-width of the fit's ~95% prediction band
	// in milliseconds; 0 for simulated anchors. A pointer so fitted
	// responses always carry the field (including the anchors' exact
	// 0) while exact responses omit it entirely.
	IntervalMs *float64 `json:"interval_ms,omitempty"`
}

// FitSummary reports a fitted curve's diagnostics: the basis it was fit
// over, the solved coefficients, and how the residual-driven refinement
// ended.
type FitSummary struct {
	// Basis names the fitted terms; Coefficients[i] multiplies Basis[i].
	Basis        []string  `json:"basis"`
	Coefficients []float64 `json:"coefficients"`
	// Anchors is how many ladder points were truly simulated.
	Anchors int `json:"anchors"`
	// Iterations counts fit rounds; Converged reports whether the
	// relative-residual tolerance was met (vs. exhausting the anchor
	// budget).
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Tolerance  float64 `json:"tolerance"`
	// MaxRelResidual / MeanRelResidual summarize how well the final fit
	// reproduces its own anchors, relative to each anchor's value.
	MaxRelResidual  float64 `json:"max_rel_residual"`
	MeanRelResidual float64 `json:"mean_rel_residual"`
}

// SweepResponse is a processor-scaling series. Mode and Fit appear only
// in fitted-mode responses.
type SweepResponse struct {
	Benchmark string       `json:"benchmark"`
	Machine   string       `json:"machine"`
	Size      int          `json:"size"`
	Iters     int          `json:"iters"`
	Mode      string       `json:"mode,omitempty"`
	Points    []SweepPoint `json:"points"`
	Fit       *FitSummary  `json:"fit,omitempty"`
}

// SweepCurve is one machine's series of a multi-machine sweep.
type SweepCurve struct {
	Machine string       `json:"machine"`
	Points  []SweepPoint `json:"points"`
	Fit     *FitSummary  `json:"fit,omitempty"`
}

// MultiSweepResponse answers a sweep over several machines: one curve
// per requested machine, in request order, all derived from the same
// measurements. Each curve's points are byte-identical to the Points a
// single-machine sweep of that machine returns.
type MultiSweepResponse struct {
	Benchmark string       `json:"benchmark"`
	Size      int          `json:"size"`
	Iters     int          `json:"iters"`
	Mode      string       `json:"mode,omitempty"`
	Curves    []SweepCurve `json:"curves"`
}

// BenchmarkInfo describes one suite benchmark in GET /v1/benchmarks.
type BenchmarkInfo struct {
	Name         string `json:"name"`
	Description  string `json:"description"`
	DefaultSize  int    `json:"default_size"`
	DefaultIters int    `json:"default_iters"`
}

// MachineInfo describes one environment preset in GET /v1/machines.
type MachineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// PatternsResponse answers GET /v1/patterns: the compose DSL's pattern
// vocabulary, the built-in workload presets (usable anywhere a
// benchmark name is), and the spec ceilings a workload must stay under.
type PatternsResponse struct {
	Patterns []compose.PatternInfo `json:"patterns"`
	Presets  []WorkloadPresetInfo  `json:"presets"`
	Limits   WorkloadLimits        `json:"limits"`
}

// WorkloadPresetInfo describes one registered workload preset,
// including the canonical wl/v1 encoding its content addresses derive
// from — so an operator can see exactly which composed tree a preset
// name resolves to.
type WorkloadPresetInfo struct {
	Name         string `json:"name"`
	Description  string `json:"description"`
	Canonical    string `json:"canonical"`
	DefaultSize  int    `json:"default_size"`
	DefaultIters int    `json:"default_iters"`
}

// WorkloadLimits publishes the compose package's validation ceilings.
type WorkloadLimits struct {
	MaxSpecBytes    int     `json:"max_spec_bytes"`
	MaxDepth        int     `json:"max_depth"`
	MaxNodes        int     `json:"max_nodes"`
	MaxFanout       int     `json:"max_fanout"`
	MaxTasks        int     `json:"max_tasks"`
	MaxGridCells    int     `json:"max_grid_cells"`
	MaxSteps        int     `json:"max_steps"`
	MaxGrain        int     `json:"max_grain"`
	MaxMessageBytes int     `json:"max_message_bytes"`
	MaxImbalance    float64 `json:"max_imbalance"`
	MaxSize         int     `json:"max_size"`
	MaxIters        int     `json:"max_iters"`
	MaxEvents       int64   `json:"max_events"`
}

// checkOneProgram is the public API's own program rule, on top of the
// shared resolver: a request names a registry benchmark or carries a
// workload spec, never both. (A persisted job or a shard carries both,
// the name derived from the spec.)
func checkOneProgram(name string, workload json.RawMessage) *request.Error {
	if len(workload) > 0 && name != "" {
		return request.Errorf(http.StatusBadRequest, "invalid_workload",
			"benchmark and workload are mutually exclusive; set one")
	}
	return nil
}

// resolve validates an extrapolation request and returns its resolved
// parts: the benchmark, the concrete size, the environment, and the
// effective processor count, which must divide the thread count.
func (req *ExtrapolateRequest) resolve() (benchmarks.Benchmark, benchmarks.Size, machine.Env, int, *request.Error) {
	if apiErr := checkOneProgram(req.Benchmark, req.Workload); apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	b, sz, apiErr := request.ResolveProgram(req.Benchmark, req.Workload, req.Size, req.Iters)
	if apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	env, apiErr := request.ResolveMachine(req.Machine)
	if apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	if apiErr := request.CheckMeasurement(b, sz, req.Threads); apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	procs := req.Procs
	if procs == 0 {
		procs = req.Threads
	}
	if procs < 0 || procs > req.Threads || req.Threads%procs != 0 {
		return nil, benchmarks.Size{}, machine.Env{}, 0,
			request.Errorf(http.StatusBadRequest, "invalid_procs", "procs must be a positive divisor of threads (threads=%d, procs=%d)", req.Threads, req.Procs)
	}
	return b, sz, env, procs, nil
}

// resolve validates a sweep request: the public program rule, then the
// shared sweep resolver (SweepRequest has request.Sweep's fields).
func (req *SweepRequest) resolve() (request.ResolvedSweep, *request.Error) {
	if apiErr := checkOneProgram(req.Benchmark, req.Workload); apiErr != nil {
		return request.ResolvedSweep{}, apiErr
	}
	return request.Sweep(*req).Resolve()
}
