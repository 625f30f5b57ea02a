// Package compose is the compositional workload subsystem: it parses a
// small declarative JSON spec of nested parallel design patterns —
// pipeline, task_farm, stencil, reduction, bsp, and the seq/par
// combinators — validates it against hard ceilings, canonicalizes it
// into the deterministic wl/v1 key scheme, and lowers it to a
// deterministic pcxx program that runs through the measure → translate →
// simulate pipeline exactly like a registered benchmark.
//
// A composed workload is indistinguishable from a built-in kernel to
// every downstream subsystem: its Name() is derived from the canonical
// encoding ("wl:" + 32 hex digits of the SHA-256), so cache keys, store
// addresses, coordinator shard affinity, and job resume all work
// unchanged, and byte-identity across workers/format/restart holds
// because the lowered program is a pure function of the normalized spec.
package compose

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Ceilings bound hostile or runaway specs. They compose with the serve
// work budget: validation caps the structural size here, and the
// request-time budget caps the instantiated event volume via WorkUnits.
const (
	// MaxSpecBytes bounds the raw JSON accepted by FromJSON. It is well
	// under the cluster shard body cap, so a workload that validates
	// locally always fits on the coordinator→worker wire.
	MaxSpecBytes = 16 << 10
	// MaxDepth bounds pattern nesting (the root is depth 1).
	MaxDepth = 8
	// MaxNodes bounds the total pattern-node count of one spec.
	MaxNodes = 64
	// MaxFanout bounds the stage/child count of one composite node.
	MaxFanout = 16
	// MaxTasks bounds a task_farm's task count.
	MaxTasks = 4096
	// MaxGridDim bounds each stencil dimension; MaxGridCells bounds the
	// width×height product.
	MaxGridDim   = 1024
	MaxGridCells = 4096
	// MaxSteps bounds stencil sweeps and bsp supersteps.
	MaxSteps = 32
	// MaxGrain bounds the per-element compute grain (flops per unit of
	// the size scale).
	MaxGrain = 1 << 16
	// MaxMessageBytes bounds the per-message transfer size.
	MaxMessageBytes = 1 << 16
	// MaxImbalance bounds the deterministic load-imbalance amplitude.
	MaxImbalance = 4.0
	// MaxScale and MaxSpecIters bound the spec-level default size and
	// iteration count (requests may override within the serve ceilings).
	MaxScale     = 1 << 16
	MaxSpecIters = 1 << 16
	// MaxSpecEvents bounds the estimated single-thread event volume of
	// one spec iteration, so even a structurally legal spec cannot
	// demand an absurd measurement.
	MaxSpecEvents = 1 << 20
)

// Pattern kinds.
const (
	KindPipeline  = "pipeline"
	KindTaskFarm  = "task_farm"
	KindStencil   = "stencil"
	KindReduction = "reduction"
	KindBSP       = "bsp"
	KindSeq       = "seq"
	KindPar       = "par"
)

// Reduction shapes.
const (
	OpTree = "tree"
	OpFlat = "flat"
)

// Node is one pattern node of a workload spec. Kind selects the
// pattern; the remaining fields parameterize it (unused fields must be
// absent or zero — validation rejects cross-kind leakage so a typo'd
// spec fails loudly instead of silently meaning something else).
type Node struct {
	Kind string `json:"kind"`

	// Grain is the compute grain per element/task/superstep, in flops
	// per unit of the workload's size scale. Zero means 1.
	Grain int `json:"grain,omitempty"`
	// MessageBytes is the transfer size of the pattern's communication.
	// Zero means 8.
	MessageBytes int `json:"message_bytes,omitempty"`
	// Imbalance is the deterministic load-imbalance amplitude in
	// [0, MaxImbalance]: element k's grain is scaled by a pseudo-random
	// factor in [1, 1+Imbalance] seeded by k.
	Imbalance float64 `json:"imbalance,omitempty"`

	// Stages are a pipeline's stage nodes (in order).
	Stages []Node `json:"stages,omitempty"`
	// Children are a seq/par combinator's child nodes.
	Children []Node `json:"children,omitempty"`

	// Tasks is a task_farm's task count. Zero means 16.
	Tasks int `json:"tasks,omitempty"`
	// Width and Height shape a stencil grid. Height 0 selects the 1-D
	// halo exchange; Width zero means 16.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Sweeps is the stencil's sweep count. Zero means 1.
	Sweeps int `json:"sweeps,omitempty"`
	// Op selects the reduction shape: "tree" (default) or "flat".
	Op string `json:"op,omitempty"`
	// Supersteps is a bsp node's superstep count. Zero means 1.
	Supersteps int `json:"supersteps,omitempty"`
}

// Spec is a full workload spec: a default problem scale plus the
// pattern tree.
type Spec struct {
	// Size is the default size scale (benchmarks.Size.N): a multiplier
	// on every node's compute grain. Zero means 16.
	Size int `json:"size,omitempty"`
	// Iters is the default outer repetition count
	// (benchmarks.Size.Iters). Zero means 1.
	Iters int `json:"iters,omitempty"`
	// Root is the pattern tree.
	Root Node `json:"root"`
}

// isComposite reports whether kind nests other nodes.
func isComposite(kind string) bool {
	return kind == KindPipeline || kind == KindSeq || kind == KindPar
}

// normalize fills documented defaults in place so canonicalization and
// lowering see one spelling of each spec. Called only after validate.
func (n *Node) normalize() {
	if n.Grain == 0 {
		n.Grain = 1
	}
	if n.MessageBytes == 0 {
		n.MessageBytes = 8
	}
	switch n.Kind {
	case KindTaskFarm:
		if n.Tasks == 0 {
			n.Tasks = 16
		}
	case KindStencil:
		if n.Width == 0 {
			n.Width = 16
		}
		if n.Sweeps == 0 {
			n.Sweeps = 1
		}
	case KindReduction:
		if n.Op == "" {
			n.Op = OpTree
		}
	case KindBSP:
		if n.Supersteps == 0 {
			n.Supersteps = 1
		}
	}
	for i := range n.Stages {
		n.Stages[i].normalize()
	}
	for i := range n.Children {
		n.Children[i].normalize()
	}
}

// validate walks the node at the given depth, accumulating the node
// count, and rejects anything outside the ceilings.
func (n *Node) validate(depth int, nodes *int) error {
	if depth > MaxDepth {
		return fmt.Errorf("compose: nesting depth %d exceeds the ceiling %d", depth, MaxDepth)
	}
	*nodes++
	if *nodes > MaxNodes {
		return fmt.Errorf("compose: spec exceeds the %d-node ceiling", MaxNodes)
	}
	if n.Grain < 0 || n.Grain > MaxGrain {
		return fmt.Errorf("compose: %s grain %d out of range [0, %d]", n.Kind, n.Grain, MaxGrain)
	}
	if n.MessageBytes < 0 || n.MessageBytes > MaxMessageBytes {
		return fmt.Errorf("compose: %s message_bytes %d out of range [0, %d]", n.Kind, n.MessageBytes, MaxMessageBytes)
	}
	if n.Imbalance < 0 || n.Imbalance > MaxImbalance || n.Imbalance != n.Imbalance {
		return fmt.Errorf("compose: %s imbalance %v out of range [0, %v]", n.Kind, n.Imbalance, MaxImbalance)
	}
	if !isComposite(n.Kind) && (len(n.Stages) > 0 || len(n.Children) > 0) {
		return fmt.Errorf("compose: leaf pattern %q cannot nest stages or children", n.Kind)
	}
	if n.Kind != KindTaskFarm && n.Tasks != 0 {
		return fmt.Errorf("compose: %q does not take tasks", n.Kind)
	}
	if n.Kind != KindStencil && (n.Width != 0 || n.Height != 0 || n.Sweeps != 0) {
		return fmt.Errorf("compose: %q does not take width/height/sweeps", n.Kind)
	}
	if n.Kind != KindReduction && n.Op != "" {
		return fmt.Errorf("compose: %q does not take op", n.Kind)
	}
	if n.Kind != KindBSP && n.Supersteps != 0 {
		return fmt.Errorf("compose: %q does not take supersteps", n.Kind)
	}

	switch n.Kind {
	case KindPipeline:
		if len(n.Children) > 0 {
			return fmt.Errorf("compose: pipeline nests via stages, not children")
		}
		if len(n.Stages) < 1 || len(n.Stages) > MaxFanout {
			return fmt.Errorf("compose: pipeline needs 1..%d stages, got %d", MaxFanout, len(n.Stages))
		}
		for i := range n.Stages {
			if err := n.Stages[i].validate(depth+1, nodes); err != nil {
				return err
			}
		}
	case KindSeq, KindPar:
		if len(n.Stages) > 0 {
			return fmt.Errorf("compose: %s nests via children, not stages", n.Kind)
		}
		if len(n.Children) < 1 || len(n.Children) > MaxFanout {
			return fmt.Errorf("compose: %s needs 1..%d children, got %d", n.Kind, MaxFanout, len(n.Children))
		}
		for i := range n.Children {
			if err := n.Children[i].validate(depth+1, nodes); err != nil {
				return err
			}
		}
	case KindTaskFarm:
		if n.Tasks < 0 || n.Tasks > MaxTasks {
			return fmt.Errorf("compose: task_farm tasks %d out of range [0, %d]", n.Tasks, MaxTasks)
		}
	case KindStencil:
		if n.Width < 0 || n.Width > MaxGridDim {
			return fmt.Errorf("compose: stencil width %d out of range [0, %d]", n.Width, MaxGridDim)
		}
		if n.Height < 0 || n.Height > MaxGridDim {
			return fmt.Errorf("compose: stencil height %d out of range [0, %d]", n.Height, MaxGridDim)
		}
		w, h := n.Width, n.Height
		if w == 0 {
			w = 16
		}
		if h == 0 {
			h = 1
		}
		if w*h > MaxGridCells {
			return fmt.Errorf("compose: stencil grid %d×%d exceeds the %d-cell ceiling", w, h, MaxGridCells)
		}
		if n.Sweeps < 0 || n.Sweeps > MaxSteps {
			return fmt.Errorf("compose: stencil sweeps %d out of range [0, %d]", n.Sweeps, MaxSteps)
		}
	case KindReduction:
		if n.Op != "" && n.Op != OpTree && n.Op != OpFlat {
			return fmt.Errorf("compose: reduction op %q is not %q or %q", n.Op, OpTree, OpFlat)
		}
	case KindBSP:
		if n.Supersteps < 0 || n.Supersteps > MaxSteps {
			return fmt.Errorf("compose: bsp supersteps %d out of range [0, %d]", n.Supersteps, MaxSteps)
		}
	default:
		return fmt.Errorf("compose: unknown pattern kind %q", n.Kind)
	}
	return nil
}

// shape walks a normalized node accumulating the node count and the
// maximum nesting depth.
func (n *Node) shape(depth int, nodes, maxDepth *int) {
	*nodes++
	if depth > *maxDepth {
		*maxDepth = depth
	}
	for i := range n.Stages {
		n.Stages[i].shape(depth+1, nodes, maxDepth)
	}
	for i := range n.Children {
		n.Children[i].shape(depth+1, nodes, maxDepth)
	}
}

// eventsTotal estimates the total trace event volume one iteration of a
// normalized node produces across th threads — the basis of the
// WorkEstimator budget and of the MaxSpecEvents validation guard. The
// coefficients mirror the lowering in lower.go: each task or cell costs
// a compute event plus its communication, each collective costs
// per-thread rounds, and the flat reduction is deliberately quadratic.
func (n *Node) eventsTotal(th int64) int64 {
	if th < 1 {
		th = 1
	}
	var ev int64
	switch n.Kind {
	case KindPipeline:
		for i := range n.Stages {
			ev += n.Stages[i].eventsTotal(th)
			ev += 4 * th // per-stage handoff: write, read, two barriers
		}
	case KindSeq:
		for i := range n.Children {
			ev += n.Children[i].eventsTotal(th) + th
		}
	case KindPar:
		for i := range n.Children {
			ev += n.Children[i].eventsTotal(th)
		}
	case KindTaskFarm:
		ev += 2*int64(n.Tasks) + 6*th // task grains + tree reduction
	case KindStencil:
		h := int64(n.Height)
		if h == 0 {
			h = 1
		}
		ev += int64(n.Width)*h*int64(n.Sweeps)*5 + int64(n.Sweeps)*th
	case KindReduction:
		if n.Op == OpFlat {
			ev += th*th + 2*th
		} else {
			ev += 6 * th
		}
	case KindBSP:
		ev += int64(n.Supersteps) * 4 * th
	}
	return ev
}

// parseSpec strictly decodes raw into a validated, normalized Spec.
func parseSpec(raw []byte) (*Spec, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("compose: empty workload spec")
	}
	if len(raw) > MaxSpecBytes {
		return nil, fmt.Errorf("compose: spec is %d bytes, ceiling is %d", len(raw), MaxSpecBytes)
	}
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("compose: decoding spec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("compose: trailing data after spec object")
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	sp.normalize()
	return &sp, nil
}

// validate checks the top-level fields and the pattern tree.
func (sp *Spec) validate() error {
	if sp.Size < 0 || sp.Size > MaxScale {
		return fmt.Errorf("compose: size %d out of range [0, %d]", sp.Size, MaxScale)
	}
	if sp.Iters < 0 || sp.Iters > MaxSpecIters {
		return fmt.Errorf("compose: iters %d out of range [0, %d]", sp.Iters, MaxSpecIters)
	}
	if sp.Root.Kind == "" {
		return fmt.Errorf("compose: spec has no root pattern")
	}
	nodes := 0
	return sp.Root.validate(1, &nodes)
}

// normalize fills the documented defaults.
func (sp *Spec) normalize() {
	if sp.Size == 0 {
		sp.Size = 16
	}
	if sp.Iters == 0 {
		sp.Iters = 1
	}
	sp.Root.normalize()
}
