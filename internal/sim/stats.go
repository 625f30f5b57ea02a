package sim

import (
	"fmt"
	"strings"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// ThreadStats is the per-thread breakdown of simulated time. The four wait
// categories plus compute account for a thread's lifetime up to Finish
// (they may not sum exactly to Finish because service work overlaps wait
// states by design).
type ThreadStats struct {
	// Compute is pure (MipsRatio-scaled) computation time.
	Compute vtime.Time
	// CommWait is time from hitting a remote access to resuming after the
	// reply (including send overheads).
	CommWait vtime.Time
	// BarrierWait is time from hitting a barrier entry to completing the
	// exit.
	BarrierWait vtime.Time
	// Service is time spent servicing other threads' requests and paying
	// interrupt/poll overheads.
	Service vtime.Time
	// CPUWait is time spent runnable but waiting for a multithreaded
	// processor (zero in the one-thread-per-processor configuration).
	CPUWait vtime.Time
	// RemoteReads and RemoteWrites count the thread's remote accesses.
	RemoteReads  int64
	RemoteWrites int64
	// Barriers counts barriers completed.
	Barriers int64
	// Finish is the simulated time at which the thread ended.
	Finish vtime.Time
}

// NetStats summarizes the communication substrate's activity.
type NetStats struct {
	Messages      int64
	Bytes         int64
	TotalTransit  vtime.Time
	ContentionAdd vtime.Time
	QueueingAdd   vtime.Time
	MaxInFlight   int
}

// Result is the outcome of one extrapolation: the predicted performance
// information PI₂ᵖ and the metrics derived from it.
type Result struct {
	// TotalTime is the predicted parallel execution time.
	TotalTime vtime.Time
	// Threads holds the per-thread breakdowns.
	Threads []ThreadStats
	// Net summarizes network activity.
	Net NetStats
	// Barriers is the number of global barriers simulated.
	Barriers int
	// Procs is the simulated processor count.
	Procs int
	// Trace is the extrapolated event trace (nil unless Config.EmitTrace).
	Trace *trace.Trace
}

// TotalCompute sums compute time over threads.
func (r *Result) TotalCompute() vtime.Time {
	return r.sum(func(s ThreadStats) vtime.Time { return s.Compute })
}

// TotalCommWait sums remote-access wait over threads.
func (r *Result) TotalCommWait() vtime.Time {
	return r.sum(func(s ThreadStats) vtime.Time { return s.CommWait })
}

// TotalBarrierWait sums barrier wait over threads.
func (r *Result) TotalBarrierWait() vtime.Time {
	return r.sum(func(s ThreadStats) vtime.Time { return s.BarrierWait })
}

// TotalService sums request-service time over threads.
func (r *Result) TotalService() vtime.Time {
	return r.sum(func(s ThreadStats) vtime.Time { return s.Service })
}

func (r *Result) sum(f func(ThreadStats) vtime.Time) vtime.Time {
	var t vtime.Time
	for _, s := range r.Threads {
		t += f(s)
	}
	return t
}

// String renders a one-paragraph summary of the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d time=%v barriers=%d msgs=%d bytes=%d\n",
		r.Procs, r.TotalTime, r.Barriers, r.Net.Messages, r.Net.Bytes)
	fmt.Fprintf(&b, "compute=%v comm-wait=%v barrier-wait=%v service=%v",
		r.TotalCompute(), r.TotalCommWait(), r.TotalBarrierWait(), r.TotalService())
	return b.String()
}
