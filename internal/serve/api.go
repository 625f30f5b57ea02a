package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/machine"
	"extrap/internal/model"
)

// Request ceilings: the API bounds per-request work up front so a single
// request cannot monopolize the server, and the pipeline additionally
// honors the request deadline at safe points in every stage (including
// the measurement), so even a request that passes validation cannot hold
// an in-flight slot past RequestTimeout. The per-field limits are
// generous — well past the paper's largest configurations — but their
// product is not: maxWorkUnits bounds size × iters × threads combined,
// because each field at its individual ceiling would admit ~2^40-unit
// measurements.
const (
	maxThreads   = 256
	maxSize      = 1 << 16
	maxIters     = 1 << 16
	maxWorkUnits = 1 << 26
	maxLadderLen = 16
	maxBodyBytes = 1 << 20
	// maxFittedLadderLen is the ladder ceiling for fitted-mode sweeps.
	// Fitted sweeps simulate only a sparse anchor subset (at most
	// model.AnchorBudget points), so the dense ladder can be far longer
	// than the exact mode's without exceeding the same work budget —
	// which the fitted budget check enforces against the worst-case
	// anchor set, not the full ladder.
	maxFittedLadderLen = 256
)

// Sweep modes. The zero value and "exact" both select the exact path —
// every ladder cell truly simulated, responses byte-identical to every
// release since the sweep endpoint existed. "fitted" simulates a sparse
// anchor set and answers the rest of the ladder from an analytic
// least-squares fit, with per-point provenance and uncertainty.
const (
	modeExact  = "exact"
	modeFitted = "fitted"
)

// workUnits is the validation proxy for one measurement's cost. A
// benchmark that can estimate its own work (composed workloads know
// their event totals) is asked; everything else uses the historical
// proxy of problem size × iterations (at least one) × measured threads.
func workUnits(b benchmarks.Benchmark, sz benchmarks.Size, threads int) int64 {
	if we, ok := b.(benchmarks.WorkEstimator); ok {
		return we.WorkUnits(sz, threads)
	}
	iters := sz.Iters
	if iters < 1 {
		iters = 1
	}
	return int64(sz.N) * int64(iters) * int64(threads)
}

// checkWorkBudget rejects configurations whose combined work product
// exceeds the per-request budget.
func checkWorkBudget(b benchmarks.Benchmark, sz benchmarks.Size, threads int) *apiError {
	if w := workUnits(b, sz, threads); w > maxWorkUnits {
		return errf(http.StatusBadRequest, "work_budget_exceeded",
			"requested work %d exceeds the per-request budget %d; reduce size, iters, or threads",
			w, int64(maxWorkUnits))
	}
	return nil
}

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

// maxSweepMachines bounds the machine list of a multi-machine sweep.
// Machines multiply only simulation work — every machine shares the
// ladder's measurements — so the bound is about response size, not the
// work budget.
const maxSweepMachines = 16

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
	// maxFittedLadderLen entries.
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

// apiError is the typed error envelope every failure returns:
// {"error":{"code":..., "message":...}} with the matching HTTP status.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

// errf builds an apiError with a formatted message.
func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// decodeJSON parses a request body into dst with strict field checking.
func decodeJSON(r *http.Request, dst any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errf(http.StatusBadRequest, "invalid_json", "decoding request body: %v", err)
	}
	return nil
}

// resolveProgram validates and resolves the program under measurement —
// a registry benchmark by name, or an inline composed-workload spec
// synthesized through the compose DSL — plus its size parameters,
// substituting defaults for zero fields. Exactly one of name / workload
// must be set.
func resolveProgram(name string, workload json.RawMessage, size, iters int) (benchmarks.Benchmark, benchmarks.Size, *apiError) {
	var b benchmarks.Benchmark
	switch {
	case len(workload) > 0 && name != "":
		return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "invalid_workload",
			"benchmark and workload are mutually exclusive; set one")
	case len(workload) > 0:
		w, err := compose.FromJSON(workload)
		if err != nil {
			return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "invalid_workload", "%v", err)
		}
		b = w
	case name == "":
		return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "missing_benchmark", "benchmark or workload is required")
	default:
		var err error
		b, err = benchmarks.ByName(name)
		if err != nil {
			return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "unknown_benchmark", "%v", err)
		}
	}
	if size < 0 || size > maxSize {
		return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "invalid_size", "size must be in [0, %d], got %d", maxSize, size)
	}
	if iters < 0 || iters > maxIters {
		return nil, benchmarks.Size{}, errf(http.StatusBadRequest, "invalid_iters", "iters must be in [0, %d], got %d", maxIters, iters)
	}
	sz := b.DefaultSize()
	if size > 0 {
		sz.N = size
	}
	if iters > 0 {
		sz.Iters = iters
	}
	sz.Verify = false
	return b, sz, nil
}

// resolveMachine validates and resolves an environment preset name.
func resolveMachine(name string) (machine.Env, *apiError) {
	if name == "" {
		return machine.Env{}, errf(http.StatusBadRequest, "missing_machine", "machine is required")
	}
	env, err := machine.ByName(name)
	if err != nil {
		return machine.Env{}, errf(http.StatusBadRequest, "unknown_machine", "%v", err)
	}
	return env, nil
}

// resolve validates an extrapolation request and returns its resolved
// parts: the benchmark, the concrete size, the environment, and the
// effective processor count.
func (req *ExtrapolateRequest) resolve() (benchmarks.Benchmark, benchmarks.Size, machine.Env, int, *apiError) {
	b, sz, apiErr := resolveProgram(req.Benchmark, req.Workload, req.Size, req.Iters)
	if apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	env, apiErr := resolveMachine(req.Machine)
	if apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	if req.Threads < 1 || req.Threads > maxThreads {
		return nil, benchmarks.Size{}, machine.Env{}, 0,
			errf(http.StatusBadRequest, "invalid_threads", "threads must be in [1, %d], got %d", maxThreads, req.Threads)
	}
	if apiErr := checkWorkBudget(b, sz, req.Threads); apiErr != nil {
		return nil, benchmarks.Size{}, machine.Env{}, 0, apiErr
	}
	procs := req.Procs
	if procs == 0 {
		procs = req.Threads
	}
	if procs < 0 || procs > req.Threads || req.Threads%procs != 0 {
		return nil, benchmarks.Size{}, machine.Env{}, 0,
			errf(http.StatusBadRequest, "invalid_procs", "procs must be a positive divisor of threads (threads=%d, procs=%d)", req.Threads, req.Procs)
	}
	return b, sz, env, procs, nil
}

// resolve validates a sweep request and returns the benchmark, size,
// target environments (one per requested machine, in request order),
// and ladder. Single-machine requests resolve to a one-element slice.
func (req *SweepRequest) resolve() (benchmarks.Benchmark, benchmarks.Size, []machine.Env, []int, *apiError) {
	b, sz, apiErr := resolveProgram(req.Benchmark, req.Workload, req.Size, req.Iters)
	if apiErr != nil {
		return nil, benchmarks.Size{}, nil, nil, apiErr
	}
	envs, apiErr := req.resolveMachines()
	if apiErr != nil {
		return nil, benchmarks.Size{}, nil, nil, apiErr
	}
	switch req.Mode {
	case "", modeExact:
		req.Mode = "" // normalize: "" and "exact" are one mode
	case modeFitted:
	default:
		return nil, benchmarks.Size{}, nil, nil,
			errf(http.StatusBadRequest, "invalid_mode", "mode must be %q or %q, got %q", modeExact, modeFitted, req.Mode)
	}
	ladder := req.Procs
	if len(ladder) == 0 {
		ladder = []int{1, 2, 4, 8, 16, 32}
	}
	ladderCap := maxLadderLen
	if req.Mode == modeFitted {
		ladderCap = maxFittedLadderLen
	}
	if len(ladder) > ladderCap {
		return nil, benchmarks.Size{}, nil, nil,
			errf(http.StatusBadRequest, "invalid_procs", "ladder has %d entries, max %d", len(ladder), ladderCap)
	}
	totalThreads := 0
	for _, n := range ladder {
		if n < 1 || n > maxThreads {
			return nil, benchmarks.Size{}, nil, nil,
				errf(http.StatusBadRequest, "invalid_procs", "ladder entry %d out of [1, %d]", n, maxThreads)
		}
		totalThreads += n
	}
	// A sweep measures once per ladder entry — machines share those
	// measurements — so its budget covers the ladder's thread total,
	// independent of how many machines are swept. A fitted sweep
	// simulates only its anchors, so its budget covers the worst-case
	// anchor set instead of the dense ladder.
	if req.Mode == modeFitted {
		totalThreads = fittedThreadBudget(ladder)
	}
	if apiErr := checkWorkBudget(b, sz, totalThreads); apiErr != nil {
		return nil, benchmarks.Size{}, nil, nil, apiErr
	}
	return b, sz, envs, ladder, nil
}

// fittedThreadBudget is the worst-case measured-thread total of a
// fitted sweep: refinement simulates at most model.AnchorBudget distinct
// ladder points, so the heaviest possible anchor set is the largest
// budget-many distinct entries.
func fittedThreadBudget(ladder []int) int {
	u := make([]int, 0, len(ladder))
	seen := make(map[int]bool, len(ladder))
	for _, n := range ladder {
		if !seen[n] {
			seen[n] = true
			u = append(u, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(u)))
	budget := model.AnchorBudget(len(u), model.Options{})
	total := 0
	for _, n := range u[:budget] {
		total += n
	}
	return total
}

// resolveMachines validates the machine / machines fields: exactly one
// must be set, every name must resolve, and the list is bounded and
// duplicate-free (duplicates would be wasted simulation work returning
// identical curves).
func (req *SweepRequest) resolveMachines() ([]machine.Env, *apiError) {
	if req.Machine != "" && len(req.Machines) > 0 {
		return nil, errf(http.StatusBadRequest, "invalid_machines",
			"machine and machines are mutually exclusive; set one")
	}
	if len(req.Machines) == 0 {
		env, apiErr := resolveMachine(req.Machine)
		if apiErr != nil {
			return nil, apiErr
		}
		return []machine.Env{env}, nil
	}
	if len(req.Machines) > maxSweepMachines {
		return nil, errf(http.StatusBadRequest, "invalid_machines",
			"machines has %d entries, max %d", len(req.Machines), maxSweepMachines)
	}
	envs := make([]machine.Env, len(req.Machines))
	seen := make(map[string]bool, len(req.Machines))
	for i, name := range req.Machines {
		env, apiErr := resolveMachine(name)
		if apiErr != nil {
			return nil, apiErr
		}
		if seen[env.Name] {
			return nil, errf(http.StatusBadRequest, "invalid_machines",
				"machine %q listed more than once", env.Name)
		}
		seen[env.Name] = true
		envs[i] = env
	}
	return envs, nil
}
