package network

import (
	"fmt"

	"extrap/internal/vtime"
)

// Config holds the remote-data-access model parameters of Section 3.3.2:
// communication start-up overhead, bandwidth, message construction cost,
// per-hop latency, receiver overhead, topology, and contention settings.
type Config struct {
	// StartupTime (CommStartupTime in the paper) is the sender-side
	// software overhead paid per message injection.
	StartupTime vtime.Time
	// ByteTransferTime is the per-byte transfer cost — the inverse
	// bandwidth (0.2 µs/byte = 5 MB/s; 0.118 µs/byte ≈ 8.5 MB/s CM-5).
	ByteTransferTime vtime.Time
	// MsgConstructTime is the cost of building a message (marshalling a
	// remote element request or reply) before injection.
	MsgConstructTime vtime.Time
	// HopTime is the per-hop switching latency in the interconnect.
	HopTime vtime.Time
	// RecvOverhead is the receiver-side software cost per message.
	RecvOverhead vtime.Time
	// RecvOccupancy is how long a message occupies the receiving network
	// interface's queue front; concurrent arrivals at one processor
	// serialize behind it (the directly simulated receive-queue
	// contention of the paper).
	RecvOccupancy vtime.Time
	// Topology is the interconnect shape; nil means Bus.
	Topology Topology
	// ContentionFactor controls the analytical contention model: transit
	// is inflated by (1 + ContentionFactor · inFlight/links). Zero
	// disables contention.
	ContentionFactor float64
	// RequestBytes is the size of a remote element *request* message
	// (address + header); replies carry the element data.
	RequestBytes int64
}

// Validate rejects configurations that would corrupt the simulation.
func (c *Config) Validate() error {
	if c.StartupTime < 0 || c.ByteTransferTime < 0 || c.MsgConstructTime < 0 ||
		c.HopTime < 0 || c.RecvOverhead < 0 || c.RecvOccupancy < 0 {
		return fmt.Errorf("network: negative time parameter in %+v", *c)
	}
	if c.ContentionFactor < 0 {
		return fmt.Errorf("network: negative contention factor %g", c.ContentionFactor)
	}
	if c.RequestBytes < 0 {
		return fmt.Errorf("network: negative request size %d", c.RequestBytes)
	}
	return nil
}

func (c *Config) topology() Topology {
	if c.Topology == nil {
		return Bus{}
	}
	return c.Topology
}

// BandwidthMBps reports the configured bandwidth in megabytes per second,
// for display.
func (c *Config) BandwidthMBps() float64 {
	if c.ByteTransferTime <= 0 {
		return 0
	}
	return 1e3 / float64(c.ByteTransferTime) // (1e9 ns/s)/(ns/B) → B/s; /1e6 → MB/s
}

// Network is the dynamic communication state of one simulation: it tracks
// messages in flight (feeding the contention model) and the
// receive-queue free time of each processor's network interface.
type Network struct {
	cfg      Config
	procs    int
	inFlight int
	// recvFreeAt[p] is when processor p's NI queue front frees up.
	recvFreeAt []vtime.Time

	// Stats.
	Messages      int64
	Bytes         int64
	TotalTransit  vtime.Time
	ContentionAdd vtime.Time // transit time added by the contention model
	QueueingAdd   vtime.Time // arrival delay added by NI serialization
	MaxInFlight   int
}

// Reset readies n for a simulation on procs processors under cfg, as a
// fresh network with no message sent, reusing its receive-queue array.
func (n *Network) Reset(cfg Config, procs int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if procs <= 0 {
		return fmt.Errorf("network: invalid processor count %d", procs)
	}
	recv := n.recvFreeAt
	if cap(recv) < procs {
		recv = make([]vtime.Time, procs)
	}
	recv = recv[:procs]
	clear(recv)
	*n = Network{cfg: cfg, procs: procs, recvFreeAt: recv}
	return nil
}

// Config returns the network's parameters.
func (n *Network) Config() Config { return n.cfg }

// SendOverhead returns the sender CPU time consumed injecting a message of
// the given size: construction plus start-up.
func (n *Network) SendOverhead(bytes int64) vtime.Time {
	return n.cfg.MsgConstructTime + n.cfg.StartupTime
}

// Transit computes the in-network time of a message of size bytes from
// src to dst injected now, applying the analytical contention inflation
// based on the current in-flight population. The caller must pair this
// with Inject/Deliver so the in-flight count stays balanced.
func (n *Network) Transit(src, dst int, bytes int64) vtime.Time {
	topo := n.cfg.topology()
	base := vtime.Time(bytes)*n.cfg.ByteTransferTime +
		vtime.Time(topo.Hops(src, dst, n.procs))*n.cfg.HopTime
	if n.cfg.ContentionFactor > 0 && n.inFlight > 0 {
		links := topo.Links(n.procs)
		inflate := n.cfg.ContentionFactor * float64(n.inFlight) / float64(links)
		extra := base.Scale(inflate)
		n.ContentionAdd += extra
		base += extra
	}
	return base
}

// Inject registers a message entering the network at time t, returning
// the raw arrival time at dst (before NI queueing): t + transit.
func (n *Network) Inject(t vtime.Time, src, dst int, bytes int64) vtime.Time {
	transit := n.Transit(src, dst, bytes)
	n.inFlight++
	if n.inFlight > n.MaxInFlight {
		n.MaxInFlight = n.inFlight
	}
	n.Messages++
	n.Bytes += bytes
	n.TotalTransit += transit
	return t + transit
}

// Deliver finalizes a message's arrival at processor dst whose raw
// in-network arrival is rawArrival: the message leaves the in-flight
// population and serializes through dst's NI receive queue. It returns the
// time at which the message is actually available to software at dst.
func (n *Network) Deliver(rawArrival vtime.Time, dst int) vtime.Time {
	if n.inFlight <= 0 {
		panic("network: Deliver without matching Inject")
	}
	n.inFlight--
	at := rawArrival
	if free := n.recvFreeAt[dst]; free > at {
		n.QueueingAdd += free - at
		at = free
	}
	n.recvFreeAt[dst] = at + n.cfg.RecvOccupancy
	return at
}

// InFlight reports the current in-network message population.
func (n *Network) InFlight() int { return n.inFlight }

// RecvFree exposes the per-processor NI receive-queue free times for
// the simulator's steady-state fast-forward, which fingerprints them
// and shifts the still-live ones when skipping iterations. The slice is
// the live state, not a copy.
func (n *Network) RecvFree() []vtime.Time { return n.recvFreeAt }
