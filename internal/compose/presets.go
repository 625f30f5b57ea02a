package compose

import (
	"errors"
	"fmt"
	"sort"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
)

// Preset is a named composed workload registered in the benchmarks
// registry, so the name works anywhere a benchmark name is accepted —
// the CLI, every /v1 endpoint, job files, and cluster shard specs
// (workers resolve the name from their own registry; no spec bytes
// travel).
type Preset struct {
	name string
	desc string
	w    *Workload
}

// Name returns the preset name (e.g. "pipeline8").
func (p Preset) Name() string { return p.name }

// Description summarizes the preset and its underlying tree.
func (p Preset) Description() string { return p.desc }

// DefaultSize returns the underlying workload's spec-level size.
func (p Preset) DefaultSize() benchmarks.Size { return p.w.DefaultSize() }

// Factory instantiates the underlying workload's program, under
// the preset's registry name so traces and predictions key by it.
func (p Preset) Factory(size benchmarks.Size) core.ProgramFactory {
	presetHits.Add(1)
	inner := p.w.Factory(size)
	return func(threads int) core.Program {
		prog := inner(threads)
		prog.Name = p.name
		return prog
	}
}

// WorkUnits delegates to the underlying workload's estimator.
func (p Preset) WorkUnits(sz benchmarks.Size, threads int) int64 {
	return p.w.WorkUnits(sz, threads)
}

// Workload returns the preset's underlying composed workload (for
// discovery endpoints that report the canonical encoding).
func (p Preset) Workload() *Workload { return p.w }

// presetSpecs are the built-in named workloads. The JSON here is the
// source of truth: it parses through exactly the FromJSON path user
// specs use, so a preset is always expressible as an ad-hoc workload.
var presetSpecs = []struct {
	name string
	desc string
	spec string
}{
	{
		name: "pipeline8",
		desc: "preset composed workload: 8-stage software pipeline of bsp compute stages",
		spec: `{"size":32,"iters":2,"root":{"kind":"pipeline","message_bytes":64,"stages":[
			{"kind":"bsp","grain":4},{"kind":"bsp","grain":4},{"kind":"bsp","grain":4},{"kind":"bsp","grain":4},
			{"kind":"bsp","grain":4},{"kind":"bsp","grain":4},{"kind":"bsp","grain":4},{"kind":"bsp","grain":4}]}}`,
	},
	{
		name: "farm-stencil",
		desc: "preset composed workload: imbalanced task farm feeding a 2-D halo-exchange stencil",
		spec: `{"size":16,"iters":1,"root":{"kind":"seq","children":[
			{"kind":"task_farm","tasks":64,"grain":8,"imbalance":0.5},
			{"kind":"stencil","width":32,"height":8,"sweeps":4,"grain":2,"message_bytes":128}]}}`,
	},
	{
		name: "bsp-reduce",
		desc: "preset composed workload: bsp supersteps finished by a flat all-gather reduction",
		spec: `{"size":32,"iters":1,"root":{"kind":"seq","children":[
			{"kind":"bsp","supersteps":6,"grain":8,"message_bytes":256},
			{"kind":"reduction","op":"flat","grain":4}]}}`,
	},
}

var presets []Preset

// Presets returns the built-in named workloads sorted by name.
func Presets() []Preset {
	out := make([]Preset, len(presets))
	copy(out, presets)
	return out
}

func init() {
	for _, ps := range presetSpecs {
		w, err := FromJSON([]byte(ps.spec))
		if err != nil {
			panic(fmt.Sprintf("compose: preset %q spec invalid: %v", ps.name, err))
		}
		p := Preset{name: ps.name, desc: ps.desc, w: w}
		// Registration is idempotent through the typed error: a second
		// init path (e.g. test binaries linking the package twice via
		// different import graphs) is not a crash.
		if err := benchmarks.Register(p); err != nil && !errors.Is(err, benchmarks.ErrDuplicate) {
			panic(fmt.Sprintf("compose: registering preset %q: %v", ps.name, err))
		}
		presets = append(presets, p)
	}
	sort.Slice(presets, func(i, j int) bool { return presets[i].name < presets[j].name })
}

// PatternInfo describes one pattern kind for the discovery endpoint.
type PatternInfo struct {
	Kind        string   `json:"kind"`
	Description string   `json:"description"`
	Fields      []string `json:"fields"`
}

// Patterns returns the DSL's pattern kinds sorted by kind, for
// GET /v1/patterns. The listing is static, so the endpoint's bytes are
// stable across processes and releases of the same version.
func Patterns() []PatternInfo {
	return []PatternInfo{
		{Kind: KindBSP, Description: "superstep phases: compute, partner exchange of message_bytes, barrier",
			Fields: []string{"grain", "message_bytes", "imbalance", "supersteps"}},
		{Kind: KindPar, Description: "children in order without separating barriers (communication overlaps)",
			Fields: []string{"children"}},
		{Kind: KindPipeline, Description: "stages in sequence with a neighbor-shift handoff of message_bytes between stages",
			Fields: []string{"grain", "message_bytes", "imbalance", "stages"}},
		{Kind: KindReduction, Description: "per-thread grains combined by a tree (log2 n rounds) or flat (n*(n-1) messages) reduction",
			Fields: []string{"grain", "message_bytes", "imbalance", "op"}},
		{Kind: KindSeq, Description: "children in order with separating barriers",
			Fields: []string{"children"}},
		{Kind: KindStencil, Description: "block-distributed 1-D/2-D grid; each sweep reads clamped neighbors (halo exchange) and barriers",
			Fields: []string{"grain", "message_bytes", "imbalance", "width", "height", "sweeps"}},
		{Kind: KindTaskFarm, Description: "tasks dealt cyclically with deterministic imbalance, then a tree reduction",
			Fields: []string{"grain", "message_bytes", "imbalance", "tasks"}},
	}
}
