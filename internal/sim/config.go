// Package sim implements the trace-driven simulation at the heart of the
// extrapolation technique (Section 3.3): it replays the translated
// per-thread traces against a high-level model of the target machine —
// a processor model (speed scaling and remote-request service policy), a
// remote data access model (package network), and a barrier model — and
// produces predicted execution times, per-thread breakdowns, and an
// extrapolated event trace.
package sim

import (
	"fmt"

	"extrap/internal/sim/network"
	"extrap/internal/vtime"
)

// PolicyKind selects how a processor services incoming remote element
// requests (Section 3.3.1).
type PolicyKind uint8

const (
	// NoInterrupt services requests only while the local thread waits
	// for a barrier release or a remote access reply.
	NoInterrupt PolicyKind = iota
	// Interrupt services a request the moment it arrives, interrupting
	// the local computation (active-message style, as on the CM-5).
	Interrupt
	// Poll splits computation into chunks of PollInterval and services
	// queued requests at each chunk boundary.
	Poll
)

func (p PolicyKind) String() string {
	switch p {
	case NoInterrupt:
		return "no-interrupt"
	case Interrupt:
		return "interrupt"
	case Poll:
		return "poll"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Policy parameterizes the remote-request service policy.
type Policy struct {
	Kind PolicyKind
	// PollInterval is the computation chunk length under Poll.
	PollInterval vtime.Time
	// PollOverhead is the cost of one poll check (paid at every chunk
	// boundary, even when the queue is empty).
	PollOverhead vtime.Time
	// InterruptOverhead is the cost of taking an interrupt under
	// Interrupt.
	InterruptOverhead vtime.Time
	// ServiceTime is the owner-side cost of servicing one remote element
	// request (lookup + reply construction), paid under every policy.
	ServiceTime vtime.Time
}

// Validate rejects nonsensical policies.
func (p *Policy) Validate() error {
	if p.PollOverhead < 0 || p.InterruptOverhead < 0 || p.ServiceTime < 0 {
		return fmt.Errorf("sim: negative policy cost in %+v", *p)
	}
	if p.Kind == Poll && p.PollInterval <= 0 {
		return fmt.Errorf("sim: Poll policy requires positive PollInterval, got %v", p.PollInterval)
	}
	return nil
}

// BarrierAlgorithm selects the barrier model.
type BarrierAlgorithm uint8

const (
	// LinearBarrier is the paper's master-slave algorithm: slaves message
	// the master, the master releases them one by one (O(n) release).
	LinearBarrier BarrierAlgorithm = iota
	// TreeBarrier is the logarithmic alternative the paper mentions:
	// combining tree up, broadcast tree down (O(log n)).
	TreeBarrier
	// HardwareBarrier models a dedicated synchronization network (such as
	// the CM-5 control network): release a fixed latency after the last
	// arrival.
	HardwareBarrier
)

func (b BarrierAlgorithm) String() string {
	switch b {
	case LinearBarrier:
		return "linear"
	case TreeBarrier:
		return "tree"
	case HardwareBarrier:
		return "hardware"
	}
	return fmt.Sprintf("barrier(%d)", uint8(b))
}

// BarrierConfig holds the barrier model parameters of Table 1.
type BarrierConfig struct {
	Algorithm BarrierAlgorithm
	// EntryTime is charged to each thread entering a barrier.
	EntryTime vtime.Time
	// ExitTime is charged to each thread leaving a lowered barrier.
	ExitTime vtime.Time
	// CheckTime is the master's cost to process one slave arrival (or,
	// for the shared-memory variant, one check of the arrival flags).
	CheckTime vtime.Time
	// ExitCheckTime is a slave's cost to notice the release.
	ExitCheckTime vtime.Time
	// ModelTime is the master's cost to start lowering the barrier after
	// the last arrival (BarrierModelTime in Table 3).
	ModelTime vtime.Time
	// ByMsgs selects whether synchronization travels as real messages
	// through the network model (1 in Table 1) or as shared-memory flag
	// operations with purely analytical costs (0).
	ByMsgs bool
	// MsgSize is the barrier message size when ByMsgs is set.
	MsgSize int64
	// HardwareTime is the arrival-to-release latency of HardwareBarrier.
	HardwareTime vtime.Time
}

// Validate rejects invalid barrier parameters.
func (b *BarrierConfig) Validate() error {
	if b.EntryTime < 0 || b.ExitTime < 0 || b.CheckTime < 0 ||
		b.ExitCheckTime < 0 || b.ModelTime < 0 || b.HardwareTime < 0 {
		return fmt.Errorf("sim: negative barrier parameter in %+v", *b)
	}
	if b.ByMsgs && b.MsgSize <= 0 {
		return fmt.Errorf("sim: ByMsgs barrier requires positive MsgSize, got %d", b.MsgSize)
	}
	return nil
}

// DefaultBarrier returns the Table 1 example parameter set.
func DefaultBarrier() BarrierConfig {
	return BarrierConfig{
		Algorithm:     LinearBarrier,
		EntryTime:     5 * vtime.Microsecond,
		ExitTime:      5 * vtime.Microsecond,
		CheckTime:     2 * vtime.Microsecond,
		ExitCheckTime: 2 * vtime.Microsecond,
		ModelTime:     10 * vtime.Microsecond,
		ByMsgs:        true,
		MsgSize:       128,
	}
}

// Placement selects how threads map onto processors — one of the
// execution-environment parameters the paper lists as extrapolatable
// ("processor mappings"). It matters when threads are multiplexed
// (Procs < n) or clustered: block placement keeps neighboring threads
// local, cyclic placement spreads them.
type Placement uint8

const (
	// BlockPlacement assigns contiguous thread ranges to processors.
	BlockPlacement Placement = iota
	// CyclicPlacement deals threads round-robin across processors.
	CyclicPlacement
)

func (p Placement) String() string {
	if p == CyclicPlacement {
		return "cyclic"
	}
	return "block"
}

// Config assembles the full target-environment model: processor count and
// speed, service policy, communication model, barrier model, and the
// multithreading/clustering extensions.
type Config struct {
	// Procs is the number of target processors. Zero means one processor
	// per thread (the paper's n-thread → n-processor extrapolation).
	Procs int
	// MipsRatio scales measured computation times to the target
	// processor: measured-host speed / target speed (0.41 for Sun 4 →
	// CM-5; 2.0 simulates a 2× slower target, 0.5 a 2× faster one).
	MipsRatio float64
	// Policy is the remote-request service policy.
	Policy Policy
	// Comm is the remote data access model.
	Comm network.Config
	// Barrier is the barrier model.
	Barrier BarrierConfig
	// Placement maps threads onto processors (block or cyclic).
	Placement Placement
	// ContextSwitchTime is charged when a multithreaded processor
	// switches between its threads.
	ContextSwitchTime vtime.Time
	// ClusterSize groups processors into shared-memory clusters of this
	// size; messages within a cluster use IntraComm. Zero or one
	// disables clustering.
	ClusterSize int
	// IntraComm is the communication model inside a cluster (ignored
	// unless ClusterSize > 1).
	IntraComm network.Config
	// EmitTrace, when set, makes the simulator produce the extrapolated
	// event trace alongside the aggregate results.
	EmitTrace bool
}

// Validate checks the full configuration.
func (c *Config) Validate() error {
	if c.Procs < 0 {
		return fmt.Errorf("sim: negative processor count %d", c.Procs)
	}
	if c.MipsRatio < 0 {
		return fmt.Errorf("sim: negative MipsRatio %g", c.MipsRatio)
	}
	if c.ContextSwitchTime < 0 {
		return fmt.Errorf("sim: negative context switch time %v", c.ContextSwitchTime)
	}
	if c.ClusterSize < 0 {
		return fmt.Errorf("sim: negative cluster size %d", c.ClusterSize)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Comm.Validate(); err != nil {
		return err
	}
	if c.ClusterSize > 1 {
		if err := c.IntraComm.Validate(); err != nil {
			return err
		}
	}
	return c.Barrier.Validate()
}
