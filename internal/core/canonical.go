package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
)

// Canonical key encoding, version 1.
//
// The durable artifact store addresses measurement traces and prediction
// results by content: the SHA-256 of a canonical string spelling out
// every input that determines the artifact's bytes. The encoding below IS
// the on-disk compatibility contract — changing it (reordering fields,
// renaming, reformatting a number) orphans every artifact ever written,
// silently turning a warm store into a cold one. A golden test in
// internal/store locks the format against committed fixtures; bump the
// "/v1" version component and migrate deliberately if the key inputs
// ever have to change.
//
// Only inputs that change the produced bytes belong in the key:
//   - trace/v1 covers one deterministic measurement run — the program
//     identity (benchmark name plus variant tag), its size parameters,
//     the measured thread count, and the full MeasureOptions (cost
//     model, event overhead, size mode, seed).
//   - cfg/v1 covers one simulation configuration — every sim.Config
//     field, with nested network configs spelled out and the topology
//     identified by its registered name.
//   - pred/v1 is the concatenation of the two: a prediction is a pure
//     function of (measurement, configuration).
//   - wl/v1 covers one composed-workload spec (internal/compose builds
//     the string from the validated pattern tree); the workload's
//     registry-facing name is WorkloadName(canonical), so the derived
//     name participates in trace/pred keys as the Bench field exactly
//     like a built-in kernel's name.

// Canonical returns the version-1 canonical encoding of the measurement
// key — the string whose SHA-256 content-addresses the measured trace in
// the artifact store. Two keys with equal canonical strings produce
// byte-identical traces (measurement is deterministic).
func (k CacheKey) Canonical() string {
	return k.canonicalTrace("trace/v1")
}

// CanonicalFormat returns the canonical encoding under which a store
// addresses the measurement's XTRP2 bytes, the only trace encoding. The
// fields are identical to Canonical's; only the version prefix differs
// ("trace/v2"), so no artifact a store holds under a "trace/v1" address
// is ever read as XTRP2. Prediction keys ("pred/v1") are built from
// Canonical: a prediction is a function of the measurement, not of how
// its trace was serialized. Every caller passes trace.FormatXTRP2; the
// parameter stays until the benchmark harness stops passing it.
func (k CacheKey) CanonicalFormat(trace.Format) string {
	return k.canonicalTrace("trace/v2")
}

func (k CacheKey) canonicalTrace(prefix string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|bench=%q|n=%d|iters=%d|verify=%d|threads=%d",
		prefix, k.Bench, k.N, k.Iters, b2i(k.Verify), k.Threads)
	fmt.Fprintf(&b, "|flop=%d|intop=%d|membyte=%d|call=%d",
		int64(k.Opts.Cost.FlopTime), int64(k.Opts.Cost.IntOpTime),
		int64(k.Opts.Cost.MemByteTime), int64(k.Opts.Cost.CallTime))
	fmt.Fprintf(&b, "|ovh=%d|mode=%d|seed=%d",
		int64(k.Opts.EventOverhead), uint8(k.Opts.SizeMode), k.Opts.Seed)
	return b.String()
}

// CanonicalConfig returns the version-1 canonical encoding of a
// simulation configuration — the half of a prediction's content address
// that the target environment contributes.
func CanonicalConfig(cfg sim.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg/v1|procs=%d|mips=%s", cfg.Procs, canonFloat(cfg.MipsRatio))
	fmt.Fprintf(&b, "|policy=%d,%d,%d,%d,%d",
		uint8(cfg.Policy.Kind), int64(cfg.Policy.PollInterval),
		int64(cfg.Policy.PollOverhead), int64(cfg.Policy.InterruptOverhead),
		int64(cfg.Policy.ServiceTime))
	b.WriteString("|comm=")
	canonComm(&b, cfg.Comm)
	fmt.Fprintf(&b, "|barrier=%d,%d,%d,%d,%d,%d,%d,%d,%d",
		uint8(cfg.Barrier.Algorithm), int64(cfg.Barrier.EntryTime),
		int64(cfg.Barrier.ExitTime), int64(cfg.Barrier.CheckTime),
		int64(cfg.Barrier.ExitCheckTime), int64(cfg.Barrier.ModelTime),
		b2i(cfg.Barrier.ByMsgs), cfg.Barrier.MsgSize, int64(cfg.Barrier.HardwareTime))
	fmt.Fprintf(&b, "|placement=%d|ctxswitch=%d|cluster=%d",
		uint8(cfg.Placement), int64(cfg.ContextSwitchTime), cfg.ClusterSize)
	b.WriteString("|intra=")
	canonComm(&b, cfg.IntraComm)
	fmt.Fprintf(&b, "|emit=%d", b2i(cfg.EmitTrace))
	return b.String()
}

// CanonicalPrediction returns the version-1 canonical encoding of a
// prediction: the measurement key joined with the simulation
// configuration it was extrapolated under.
func CanonicalPrediction(k CacheKey, cfg sim.Config) string {
	return "pred/v1|" + k.Canonical() + "|" + CanonicalConfig(cfg)
}

// WorkloadName derives the registry-facing name of a composed workload
// from its wl/v1 canonical encoding: "wl:" plus the first 32 hex digits
// of the canonical string's SHA-256. Like the canonical encodings above,
// this derivation is a compatibility contract (locked by the store
// golden test): the name is the Bench field of every trace and
// prediction key the workload produces, and it is what coordinators
// hash for shard affinity — so equal specs must derive equal names on
// every node, forever.
func WorkloadName(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return "wl:" + hex.EncodeToString(sum[:16])
}

// canonComm spells out one network configuration. The topology is
// identified by its Name() (nil means the bus, matching the simulator's
// default), so distinct shapes with identical cost parameters key
// differently.
func canonComm(b *strings.Builder, c network.Config) {
	topo := "bus"
	if c.Topology != nil {
		topo = c.Topology.Name()
	}
	fmt.Fprintf(b, "%d,%d,%d,%d,%d,%d,%s,%s,%d",
		int64(c.StartupTime), int64(c.ByteTransferTime), int64(c.MsgConstructTime),
		int64(c.HopTime), int64(c.RecvOverhead), int64(c.RecvOccupancy),
		topo, canonFloat(c.ContentionFactor), c.RequestBytes)
}

// canonFloat formats a float with the shortest round-trippable decimal
// representation — stable across platforms and Go releases for the same
// bit pattern.
func canonFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
