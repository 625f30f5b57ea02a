// Package request is the request contract every boundary of the service
// shares: the public HTTP API (serve), async jobs (jobs, on submit and
// on every resume of a persisted job) and cluster shards (cluster). It
// owns the ceilings, the work-unit proxy, program and machine
// resolution, the ladder, mode and budget rules of a sweep, and the
// typed error envelope, so whether a request is valid, and what it
// resolves to, does not depend on which boundary or which replica
// receives it. Each boundary adds only its own rules on top: the public
// API's one-of field pairs and procs-divides-threads, a shard's resolved
// sizes and lease bounds.
package request

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/model"
)

// Ceilings. They bound per-request work up front so a single request
// cannot monopolize a server, and the pipeline additionally honors the
// request deadline at safe points in every stage. The per-field limits
// are generous — well past the paper's largest configurations — but
// their product is not: MaxWorkUnits bounds size × iters × threads
// combined, because each field at its individual ceiling would admit
// ~2^40-unit measurements.
const (
	MaxThreads   = 256
	MaxSize      = 1 << 16
	MaxIters     = 1 << 16
	MaxWorkUnits = 1 << 26
	// MaxLadderLen bounds an exact sweep's ladder.
	MaxLadderLen = 16
	// MaxFittedLadderLen bounds a fitted sweep's ladder. Fitted sweeps
	// simulate only a sparse anchor subset (at most model.AnchorBudget
	// points), so the dense ladder can be far longer than the exact
	// mode's without exceeding the same work budget — which the fitted
	// budget check enforces against the worst-case anchor set, not the
	// full ladder.
	MaxFittedLadderLen = 256
	// MaxMachines bounds the machine list of a sweep, job or shard.
	// Machines multiply only simulation work — every machine shares the
	// ladder's measurements — so the bound is about response size, not
	// the work budget.
	MaxMachines = 16
)

// Sweep modes. The zero value and ModeExact both select the exact path —
// every ladder cell truly simulated. ModeFitted simulates a sparse
// anchor set and answers the rest of the ladder from an analytic
// least-squares fit, with per-point provenance and uncertainty.
const (
	ModeExact  = "exact"
	ModeFitted = "fitted"
)

// Error is the typed error envelope every failure answers with:
// {"error":{"code":..., "message":...}} under the matching HTTP status.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds an Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// invalid builds a 400. Every resolution failure is one: a request that
// fails here fails identically on any replica, so it is never retried.
func invalid(code, format string, args ...any) *Error {
	return Errorf(http.StatusBadRequest, code, format, args...)
}

// DecodeJSON parses a request body of at most limit bytes into dst,
// rejecting unknown fields.
func DecodeJSON(r *http.Request, dst any, limit int64) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return invalid("invalid_json", "decoding request body: %v", err)
	}
	return nil
}

// WriteJSON writes v as the response body with status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, Errorf(http.StatusInternalServerError, "internal", "encoding response: %v", err))
		return
	}
	write(w, status, body)
}

// WriteError writes the typed error envelope.
func WriteError(w http.ResponseWriter, e *Error) {
	body, _ := json.Marshal(struct {
		Error *Error `json:"error"`
	}{e})
	write(w, e.Status, body)
}

func write(w http.ResponseWriter, status int, body []byte) {
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// workUnits is the validation proxy for one measurement's cost. A
// benchmark that can estimate its own work (composed workloads know
// their event totals; the Θ(N²)-memory kernels count their floats) is
// asked; everything else uses the proxy of problem size × iterations
// (at least one) × measured threads.
func workUnits(b benchmarks.Benchmark, sz benchmarks.Size, threads int) int64 {
	if we, ok := b.(benchmarks.WorkEstimator); ok {
		return we.WorkUnits(sz, threads)
	}
	return benchmarks.ProxyWorkUnits(sz, threads)
}

// checkWorkBudget rejects configurations whose combined work product
// exceeds the per-request budget.
func checkWorkBudget(b benchmarks.Benchmark, sz benchmarks.Size, threads int) *Error {
	if w := workUnits(b, sz, threads); w > MaxWorkUnits {
		return invalid("work_budget_exceeded",
			"requested work %d exceeds the per-request budget %d; reduce size, iters, or threads",
			w, int64(MaxWorkUnits))
	}
	return nil
}

// ResolveProgram resolves the program under measurement — a registry
// benchmark by name, or a composed-workload spec synthesized through the
// compose DSL — and its size, substituting the program's defaults for a
// zero size or iters. When both a name and a spec are given, the spec
// must derive that name: cache keys and content addresses speak the
// name, so the bytes must be the program it promises.
func ResolveProgram(name string, workload json.RawMessage, size, iters int) (benchmarks.Benchmark, benchmarks.Size, *Error) {
	var b benchmarks.Benchmark
	if len(workload) > 0 {
		w, err := compose.FromJSON(workload)
		if err != nil {
			return nil, benchmarks.Size{}, invalid("invalid_workload", "%v", err)
		}
		if name != "" && name != w.Name() {
			return nil, benchmarks.Size{}, invalid("workload_mismatch",
				"workload spec derives %s but the request names %s", w.Name(), name)
		}
		b = w
	} else {
		if name == "" {
			return nil, benchmarks.Size{}, invalid("missing_benchmark", "benchmark or workload is required")
		}
		var err error
		if b, err = benchmarks.ByName(name); err != nil {
			return nil, benchmarks.Size{}, invalid("unknown_benchmark", "%v", err)
		}
	}
	if size < 0 || size > MaxSize {
		return nil, benchmarks.Size{}, invalid("invalid_size", "size must be in [0, %d], got %d", MaxSize, size)
	}
	if iters < 0 || iters > MaxIters {
		return nil, benchmarks.Size{}, invalid("invalid_iters", "iters must be in [0, %d], got %d", MaxIters, iters)
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

// WorkloadJSON is the normalized spec that travels with a composed
// workload — in a shard or a persisted job — because no registry on
// another node or in a later process can resolve its derived name. It
// is nil for registry benchmarks, presets included: their name suffices.
func WorkloadJSON(b benchmarks.Benchmark) json.RawMessage {
	if w, ok := b.(*compose.Workload); ok {
		return w.SpecJSON()
	}
	return nil
}

// CheckMeasurement bounds one measurement: threads in [1, MaxThreads]
// and size × iters × threads within the work budget.
func CheckMeasurement(b benchmarks.Benchmark, sz benchmarks.Size, threads int) *Error {
	if threads < 1 || threads > MaxThreads {
		return invalid("invalid_threads", "threads must be in [1, %d], got %d", MaxThreads, threads)
	}
	return checkWorkBudget(b, sz, threads)
}

// ResolveMachine resolves one environment preset name.
func ResolveMachine(name string) (machine.Env, *Error) {
	if name == "" {
		return machine.Env{}, invalid("missing_machine", "machine is required")
	}
	env, err := machine.ByName(name)
	if err != nil {
		return machine.Env{}, invalid("unknown_machine", "%v", err)
	}
	return env, nil
}

// ResolveMachines resolves a machine list: at most MaxMachines names,
// every one a preset, none twice (a duplicate would be wasted
// simulation work returning an identical curve).
func ResolveMachines(names []string) ([]machine.Env, *Error) {
	if len(names) > MaxMachines {
		return nil, invalid("invalid_machines", "machines has %d entries, max %d", len(names), MaxMachines)
	}
	envs := make([]machine.Env, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		env, apiErr := ResolveMachine(name)
		if apiErr != nil {
			return nil, apiErr
		}
		if seen[env.Name] {
			return nil, invalid("invalid_machines", "machine %q listed more than once", env.Name)
		}
		seen[env.Name] = true
		envs[i] = env
	}
	return envs, nil
}

// Sweep is a processor-scaling sweep as stated by a client: each ladder
// point n is measured with n threads and simulated on n processors of
// every target machine. Its fields are those of serve's SweepRequest
// and of a persisted jobs.Spec, which convert to it directly.
type Sweep struct {
	Benchmark string
	Workload  json.RawMessage
	Size      int
	Iters     int
	// Machine names one target environment, Machines several; exactly
	// one of the two must be set.
	Machine  string
	Machines []string
	// Procs is the ladder; empty selects core.DefaultProcCounts.
	Procs []int
	Mode  string
}

// ResolvedSweep is a valid sweep: the program and its size, one
// environment per machine in request order (a single Machine resolves
// to a one-element slice), the ladder, and the mode normalized to ""
// (exact) or ModeFitted.
type ResolvedSweep struct {
	Bench benchmarks.Benchmark
	Size  benchmarks.Size
	Envs  []machine.Env
	Procs []int
	Mode  string
}

// Resolve validates a sweep against the registries and the ceilings.
func (s Sweep) Resolve() (ResolvedSweep, *Error) {
	b, sz, apiErr := ResolveProgram(s.Benchmark, s.Workload, s.Size, s.Iters)
	if apiErr != nil {
		return ResolvedSweep{}, apiErr
	}
	if s.Machine != "" && len(s.Machines) > 0 {
		return ResolvedSweep{}, invalid("invalid_machines", "machine and machines are mutually exclusive; set one")
	}
	names := s.Machines
	if len(names) == 0 {
		names = []string{s.Machine}
	}
	envs, apiErr := ResolveMachines(names)
	if apiErr != nil {
		return ResolvedSweep{}, apiErr
	}
	mode, ladderCap := "", MaxLadderLen
	switch s.Mode {
	case "", ModeExact:
	case ModeFitted:
		mode, ladderCap = ModeFitted, MaxFittedLadderLen
	default:
		return ResolvedSweep{}, invalid("invalid_mode", "mode must be %q or %q, got %q", ModeExact, ModeFitted, s.Mode)
	}
	ladder := s.Procs
	if len(ladder) == 0 {
		ladder = core.DefaultProcCounts()
	}
	if len(ladder) > ladderCap {
		return ResolvedSweep{}, invalid("invalid_procs", "ladder has %d entries, max %d", len(ladder), ladderCap)
	}
	totalThreads := 0
	for _, n := range ladder {
		if n < 1 || n > MaxThreads {
			return ResolvedSweep{}, invalid("invalid_procs", "ladder entry %d out of [1, %d]", n, MaxThreads)
		}
		totalThreads += n
	}
	// A sweep measures once per ladder entry — machines share those
	// measurements — so its budget covers the ladder's thread total,
	// independent of how many machines are swept. A fitted sweep
	// simulates only its anchors, so its budget covers the worst-case
	// anchor set instead of the dense ladder.
	if mode == ModeFitted {
		totalThreads = fittedThreadBudget(ladder)
	}
	if apiErr := checkWorkBudget(b, sz, totalThreads); apiErr != nil {
		return ResolvedSweep{}, apiErr
	}
	return ResolvedSweep{Bench: b, Size: sz, Envs: envs, Procs: ladder, Mode: mode}, nil
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
