package compose

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
)

// Workload is a validated, normalized composed workload. It implements
// benchmarks.Benchmark — downstream subsystems sweep, fit, shard, and
// persist it exactly like a built-in kernel — plus
// benchmarks.WorkEstimator, so serving-layer work budgets account for
// the pattern tree instead of the registry-wide N×iters×threads proxy.
type Workload struct {
	spec      *Spec
	canonical string
	name      string
	specJSON  []byte
	nodes     int
	depth     int
}

// Name returns the derived registry-facing name, "wl:" plus 32 hex
// digits of the canonical encoding's SHA-256. Equal specs derive equal
// names on every node, which is what keeps cache keys, store addresses,
// coordinator shard affinity, and job resume coherent for ad-hoc
// workloads that no registry knows by name.
func (w *Workload) Name() string { return w.name }

// Description summarizes the pattern tree.
func (w *Workload) Description() string {
	return fmt.Sprintf("composed workload: %s root, %d nodes, depth %d", w.spec.Root.Kind, w.nodes, w.depth)
}

// DefaultSize returns the spec-level size scale and iteration count.
func (w *Workload) DefaultSize() benchmarks.Size {
	return benchmarks.Size{N: w.spec.Size, Iters: w.spec.Iters}
}

// Canonical returns the wl/v1 canonical encoding.
func (w *Workload) Canonical() string { return w.canonical }

// SpecJSON returns the canonical re-marshal of the normalized spec —
// the bytes that travel on the wire (job files, shard dispatches).
// Reparsing them yields a workload with the same canonical encoding and
// name.
func (w *Workload) SpecJSON() []byte { return w.specJSON }

// Nodes returns the pattern-node count.
func (w *Workload) Nodes() int { return w.nodes }

// Depth returns the maximum nesting depth (root = 1).
func (w *Workload) Depth() int { return w.depth }

// WorkUnits implements benchmarks.WorkEstimator: the estimated trace
// event volume of one measurement at the given size and thread count.
// The size scale N multiplies compute magnitudes, not event counts, so
// it does not appear here — iterations and the pattern tree do.
func (w *Workload) WorkUnits(sz benchmarks.Size, threads int) int64 {
	iters := int64(sz.Iters)
	if iters < 1 {
		iters = 1
	}
	return iters * w.spec.Root.eventsTotal(int64(threads))
}

// Counters is a snapshot of the subsystem's /debug/vars counters.
type Counters struct {
	// SpecsParsed counts FromJSON calls that reached parsing.
	SpecsParsed int64
	// Synthesized counts workloads built from scratch (cache misses).
	Synthesized int64
	// CacheHits and CacheMisses count synth-cache lookups by canonical
	// key.
	CacheHits   int64
	CacheMisses int64
	// NodesLowered counts pattern nodes flattened into synthesized
	// traces (accumulated per measurement).
	NodesLowered int64
	// PresetHits counts preset factory instantiations.
	PresetHits int64
}

var (
	specsParsed  atomic.Int64
	synthesized  atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	nodesLowered atomic.Int64
	presetHits   atomic.Int64
)

// ReadCounters snapshots the subsystem counters.
func ReadCounters() Counters {
	return Counters{
		SpecsParsed:  specsParsed.Load(),
		Synthesized:  synthesized.Load(),
		CacheHits:    cacheHits.Load(),
		CacheMisses:  cacheMisses.Load(),
		NodesLowered: nodesLowered.Load(),
		PresetHits:   presetHits.Load(),
	}
}

// synthCacheEntries bounds the canonical-key → Workload memo. Entries
// are small (the parsed tree plus its JSON), but the keys are
// client-controlled, so the cache is bounded and evicts FIFO.
const synthCacheEntries = 128

var synthCache = struct {
	sync.Mutex
	m     map[string]*Workload
	order []string
}{m: make(map[string]*Workload)}

func cacheGet(canon string) *Workload {
	synthCache.Lock()
	defer synthCache.Unlock()
	return synthCache.m[canon]
}

func cachePut(canon string, w *Workload) {
	synthCache.Lock()
	defer synthCache.Unlock()
	if _, dup := synthCache.m[canon]; dup {
		return
	}
	if len(synthCache.order) >= synthCacheEntries {
		oldest := synthCache.order[0]
		synthCache.order = synthCache.order[1:]
		delete(synthCache.m, oldest)
	}
	synthCache.m[canon] = w
	synthCache.order = append(synthCache.order, canon)
}

// FromJSON parses, validates, normalizes, and canonicalizes a workload
// spec, returning the memoized Workload for its canonical key. Hostile,
// over-deep, or oversized specs error; FromJSON never panics on any
// input.
func FromJSON(raw []byte) (*Workload, error) {
	specsParsed.Add(1)
	sp, err := parseSpec(raw)
	if err != nil {
		return nil, err
	}
	canon := sp.Canonical()
	if w := cacheGet(canon); w != nil {
		cacheHits.Add(1)
		return w, nil
	}
	cacheMisses.Add(1)
	w, err := build(sp, canon)
	if err != nil {
		return nil, err
	}
	cachePut(canon, w)
	return w, nil
}

// build assembles the Workload for a validated, normalized spec.
func build(sp *Spec, canon string) (*Workload, error) {
	if ev := sp.Root.eventsTotal(1); ev > MaxSpecEvents {
		return nil, fmt.Errorf("compose: spec's estimated event volume %d exceeds the %d ceiling", ev, MaxSpecEvents)
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("compose: re-marshaling spec: %v", err)
	}
	var nodes, depth int
	sp.Root.shape(1, &nodes, &depth)
	synthesized.Add(1)
	return &Workload{
		spec:      sp,
		canonical: canon,
		name:      core.WorkloadName(canon),
		specJSON:  specJSON,
		nodes:     nodes,
		depth:     depth,
	}, nil
}
