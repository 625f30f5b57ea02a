package serve

// The async jobs API: sweeps that outlive the request — and the server
// process. POST /v1/jobs validates exactly like POST /v1/sweep but
// returns 202 with a job ID immediately; the jobs manager executes the
// grid in the background, persisting each cell's result to the artifact
// store as it lands. GET /v1/jobs/{id} reports progress and, once done,
// the result — byte-identical to what the synchronous endpoint would
// have returned. DELETE cancels. A server restarted on the same
// -store-dir resumes incomplete jobs from their persisted partials.
//
// The endpoints require the durable store (-store-dir): an async job
// whose results vanish with the process would be a slower /v1/sweep
// with extra steps, so without a store they answer 503 store_disabled.

import (
	"encoding/json"
	"errors"
	"net/http"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/jobs"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/request"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// JobSubmitResponse is the 202 body: the ID to poll.
type JobSubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// JobStatusResponse reports one job's progress. Exactly one of Machine
// / Machines is set, mirroring the submitted request; the matching
// result field (Result for single-machine, MultiResult for
// multi-machine) is present only once Status is "done".
type JobStatusResponse struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Benchmark string `json:"benchmark"`
	// Workload is the composed-workload spec the job measures, when it
	// was submitted with one; Benchmark then holds the derived content
	// name ("wl:<hash>").
	Workload json.RawMessage `json:"workload,omitempty"`
	Machine  string          `json:"machine,omitempty"`
	Machines []string        `json:"machines,omitempty"`
	Size     int             `json:"size"`
	Iters    int             `json:"iters"`
	Procs    []int           `json:"procs"`
	// Mode is "fitted" for fitted jobs; omitted for exact jobs. A done
	// fitted job's DoneCells stays at anchors × machines — the cells
	// actually simulated — while TotalCells is the full grid, so the
	// gap is the work the fit saved.
	Mode        string              `json:"mode,omitempty"`
	TotalCells  int                 `json:"total_cells"`
	DoneCells   int                 `json:"done_cells"`
	Error       string              `json:"error,omitempty"`
	Result      *SweepResponse      `json:"result,omitempty"`
	MultiResult *MultiSweepResponse `json:"multi_result,omitempty"`
	// Artifacts lists the job's measurement traces resident in the
	// durable store — one per ladder point whose trace has been
	// persisted — with the wire format and encoded payload size of
	// each, so operators can see what a sweep actually costs on disk.
	Artifacts []JobArtifact `json:"artifacts,omitempty"`
}

// JobArtifact describes one persisted measurement trace of a job.
type JobArtifact struct {
	// Procs is the ladder point (the measured thread count).
	Procs int `json:"procs"`
	// Format is the artifact's wire format (always "xtrp2").
	Format string `json:"format"`
	// EncodedBytes is the encoded payload size in the store.
	EncodedBytes int64 `json:"encoded_bytes"`
}

// requireJobs gates the jobs endpoints on the durable store.
func (s *Server) requireJobs(w http.ResponseWriter) bool {
	if s.jobs == nil {
		request.WriteError(w, request.Errorf(http.StatusServiceUnavailable, "store_disabled",
			"async jobs need the durable store; start the server with -store-dir"))
		return false
	}
	return true
}

// handleJobSubmit serves POST /v1/jobs. The body is a SweepRequest,
// with the same shape, validation, and ceilings as POST /v1/sweep: the
// public program rule here, then jobs.Submit's sweep resolver, the one
// every resume of the job passes too.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	var req SweepRequest
	if apiErr := request.DecodeJSON(r, &req, maxBodyBytes); apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	if apiErr := checkOneProgram(req.Benchmark, req.Workload); apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	id, err := s.jobs.Submit(jobs.Spec(req))
	if err != nil {
		var apiErr *request.Error
		if !errors.As(err, &apiErr) {
			apiErr = request.Errorf(http.StatusServiceUnavailable, "job_rejected", "%v", err)
		}
		request.WriteError(w, apiErr)
		return
	}
	s.met.jobsSubmitted.Add(1)
	request.WriteJSON(w, http.StatusAccepted, JobSubmitResponse{ID: id, Status: string(jobs.StatusQueued)})
}

// jobSummary renders a job snapshot's progress fields — everything but
// the results.
func jobSummary(snap jobs.Snapshot) JobStatusResponse {
	return JobStatusResponse{
		ID:         snap.ID,
		Status:     string(snap.Status),
		Benchmark:  snap.Spec.Benchmark,
		Workload:   snap.Spec.Workload,
		Machine:    snap.Spec.Machine,
		Machines:   snap.Spec.Machines,
		Size:       snap.Spec.Size,
		Iters:      snap.Spec.Iters,
		Procs:      snap.Spec.Procs,
		Mode:       snap.Spec.Mode,
		TotalCells: snap.TotalCells,
		DoneCells:  snap.DoneCells,
		Error:      snap.Error,
	}
}

// jobResponse renders one job snapshot. Exact results go through
// buildSweepResponse; fitted results re-derive the dense curve from the
// persisted anchors via model.Replay and render through the fitted
// builder — both shared with the synchronous /v1/sweep handler, so a
// completed job's body is byte-identical to the synchronous response
// for the same request, across restarts and replicas. A fitted job
// whose persisted anchors no longer replay (store corruption or
// tampering) answers 500 rather than serving a curve that cannot be
// trusted.
func jobResponse(snap jobs.Snapshot) (JobStatusResponse, *request.Error) {
	resp := jobSummary(snap)
	if snap.Status != jobs.StatusDone {
		return resp, nil
	}
	if snap.Spec.Mode == request.ModeFitted {
		return fittedJobResponse(snap, resp)
	}
	if len(snap.Spec.Machines) == 0 {
		r := buildSweepResponse(snap.Spec.Benchmark, snap.Spec.Machine, snap.Spec.Size, snap.Spec.Iters, snap.Points)
		resp.Result = &r
		return resp, nil
	}
	mr := MultiSweepResponse{
		Benchmark: snap.Spec.Benchmark,
		Size:      snap.Spec.Size,
		Iters:     snap.Spec.Iters,
		Curves:    make([]SweepCurve, len(snap.Spec.Machines)),
	}
	for i, name := range snap.Spec.Machines {
		curve := buildSweepResponse(snap.Spec.Benchmark, name, snap.Spec.Size, snap.Spec.Iters, snap.Curves[i])
		mr.Curves[i] = SweepCurve{Machine: name, Points: curve.Points}
	}
	resp.MultiResult = &mr
	return resp, nil
}

// fittedJobResponse re-derives a done fitted job's dense curves from
// its persisted anchors. Snapshot curves hold the anchors machine-major
// with identical processor sequences per machine, which is exactly the
// transpose of model.Anchor's per-point layout.
func fittedJobResponse(snap jobs.Snapshot, resp JobStatusResponse) (JobStatusResponse, *request.Error) {
	anchors := make([]model.Anchor, len(snap.Curves[0]))
	for ai := range anchors {
		times := make([]vtime.Time, len(snap.Curves))
		for mi := range snap.Curves {
			times[mi] = snap.Curves[mi][ai].Time
		}
		anchors[ai] = model.Anchor{Procs: snap.Curves[0][ai].Procs, Times: times}
	}
	res, err := model.Replay(snap.Spec.Procs, anchors, model.Options{})
	if err != nil {
		return resp, request.Errorf(http.StatusInternalServerError, "fitted_replay_failed",
			"job %s: persisted anchors do not replay: %v", snap.ID, err)
	}
	if len(snap.Spec.Machines) == 0 {
		r := buildFittedSweepResponse(snap.Spec.Benchmark, snap.Spec.Machine, snap.Spec.Size, snap.Spec.Iters, res, 0)
		resp.Result = &r
		return resp, nil
	}
	mr := MultiSweepResponse{
		Benchmark: snap.Spec.Benchmark,
		Size:      snap.Spec.Size,
		Iters:     snap.Spec.Iters,
		Mode:      request.ModeFitted,
		Curves:    make([]SweepCurve, len(snap.Spec.Machines)),
	}
	for i, name := range snap.Spec.Machines {
		curve := buildFittedSweepResponse(snap.Spec.Benchmark, name, snap.Spec.Size, snap.Spec.Iters, res, i)
		mr.Curves[i] = SweepCurve{Machine: name, Points: curve.Points, Fit: curve.Fit}
	}
	resp.MultiResult = &mr
	return resp, nil
}

// jobArtifacts reports the job's measurement traces resident in the
// durable store: one entry per ladder point whose XTRP2 trace has been
// persisted. The measurement is shared across machines, so the list has
// one entry per proc count regardless of how many curves the job
// sweeps.
func (s *Server) jobArtifacts(snap jobs.Snapshot) []JobArtifact {
	sz := benchmarks.Size{N: snap.Spec.Size, Iters: snap.Spec.Iters}
	var out []JobArtifact
	for _, n := range snap.Spec.Procs {
		key := experiments.MeasurementKey(snap.Spec.Benchmark, sz, n, core.MeasureOptions{SizeMode: pcxx.ActualSize})
		if bytes, ok := s.store.Size(key.CanonicalFormat(trace.FormatXTRP2)); ok {
			out = append(out, JobArtifact{Procs: n, Format: trace.FormatXTRP2.String(), EncodedBytes: bytes})
		}
	}
	return out
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		request.WriteError(w, request.Errorf(http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id")))
		return
	}
	resp, apiErr := jobResponse(snap)
	if apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	resp.Artifacts = s.jobArtifacts(snap)
	request.WriteJSON(w, http.StatusOK, resp)
}

// handleJobList serves GET /v1/jobs: all known jobs, without results
// (poll GET /v1/jobs/{id} for a specific job's result).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snaps := s.jobs.List()
	out := make([]JobStatusResponse, len(snaps))
	for i, snap := range snaps {
		// Results are not listed (poll the job for them), so the summary
		// suffices — no result rendering, no replay.
		out[i] = jobSummary(snap)
	}
	request.WriteJSON(w, http.StatusOK, out)
}

// handleJobCancel serves DELETE /v1/jobs/{id}. Cancelling a terminal
// job is a no-op that reports the final state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		request.WriteError(w, request.Errorf(http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id")))
		return
	}
	resp, apiErr := jobResponse(snap)
	if apiErr != nil {
		request.WriteError(w, apiErr)
		return
	}
	request.WriteJSON(w, http.StatusOK, resp)
}
