// Package network models the communication substrate of the target
// machine for the trace-driven simulation: per-message software overheads,
// bandwidth, interconnect topology, an analytical contention model driven
// by simulation state, and network-interface receive-queue serialization.
//
// The model follows Section 3.3.2 of the paper: remote accesses are
// represented generically as messages; the performance estimates are
// mostly analytical (startup + size/bandwidth + distance), while
// contention is an analytical delay expression over factors sampled from
// the simulation state (messages in flight vs. link capacity), plus
// directly simulated receive-queue serialization.
package network

import (
	"fmt"
	"math"
)

// Topology abstracts the interconnection network shape: it supplies the
// hop distance between processors and the total link count used to
// normalize the contention factor.
type Topology interface {
	// Name identifies the topology.
	Name() string
	// Hops returns the number of network hops between processors src and
	// dst when the machine has procs processors. Hops(p, p, n) is 0.
	Hops(src, dst, procs int) int
	// Links returns the number of independent links available with procs
	// processors, the capacity denominator of the contention model.
	Links(procs int) int
}

// Bus is a single shared medium: every distinct pair is one hop apart and
// there is exactly one link, making it maximally contention-sensitive.
type Bus struct{}

func (Bus) Name() string { return "bus" }

// Hops returns 0 for self, 1 otherwise.
func (Bus) Hops(src, dst, _ int) int {
	if src == dst {
		return 0
	}
	return 1
}

// Links returns 1: the whole bus is one shared link.
func (Bus) Links(_ int) int { return 1 }

// Ring is a bidirectional ring; distance is the shorter way around.
type Ring struct{}

func (Ring) Name() string { return "ring" }

// Hops returns the shorter distance around the ring.
func (Ring) Hops(src, dst, procs int) int {
	if procs <= 1 {
		return 0
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	if alt := procs - d; alt < d {
		d = alt
	}
	return d
}

// Links returns procs: one link per node (bidirectional counted once).
func (Ring) Links(procs int) int {
	if procs < 1 {
		return 1
	}
	return procs
}

// Mesh2D is a 2-D mesh of shape ceil(sqrt(p)) × ceil(p/side); distance is
// Manhattan.
type Mesh2D struct{}

func (Mesh2D) Name() string { return "mesh2d" }

func meshSide(procs int) int {
	if procs < 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(procs))))
}

// Hops returns the Manhattan distance on the mesh.
func (Mesh2D) Hops(src, dst, procs int) int {
	side := meshSide(procs)
	sr, sc := src/side, src%side
	dr, dc := dst/side, dst%side
	h := sr - dr
	if h < 0 {
		h = -h
	}
	v := sc - dc
	if v < 0 {
		v = -v
	}
	return h + v
}

// Links approximates the bidirectional mesh link count 2·s·(s−1) for an
// s×s mesh.
func (Mesh2D) Links(procs int) int {
	s := meshSide(procs)
	l := 2 * s * (s - 1)
	if l < 1 {
		l = 1
	}
	return l
}

// Hypercube connects processors whose ids differ in one bit; distance is
// the Hamming distance.
type Hypercube struct{}

func (Hypercube) Name() string { return "hypercube" }

// Hops returns the Hamming distance between the ids.
func (Hypercube) Hops(src, dst, _ int) int {
	x := uint(src ^ dst)
	h := 0
	for x != 0 {
		h += int(x & 1)
		x >>= 1
	}
	return h
}

// Links returns p·log2(p)/2, the hypercube link count.
func (Hypercube) Links(procs int) int {
	if procs <= 1 {
		return 1
	}
	d := 0
	for 1<<d < procs {
		d++
	}
	l := procs * d / 2
	if l < 1 {
		l = 1
	}
	return l
}

// FatTree models the CM-5 data network: a 4-ary fat tree. The distance
// between two nodes is twice the height of their lowest common ancestor
// (up and back down); link capacity grows toward the root, which the
// Links count reflects by crediting each level.
type FatTree struct {
	// Arity is the tree fan-out; the CM-5 used 4. Zero means 4.
	Arity int
}

func (f FatTree) arity() int {
	if f.Arity <= 1 {
		return 4
	}
	return f.Arity
}

func (f FatTree) Name() string { return fmt.Sprintf("fattree%d", f.arity()) }

// Hops returns 2·h where h is the level of the lowest common ancestor of
// src and dst (leaves at level 0).
func (f FatTree) Hops(src, dst, _ int) int {
	if src == dst {
		return 0
	}
	a := f.arity()
	h := 0
	for src != dst {
		src /= a
		dst /= a
		h++
	}
	return 2 * h
}

// Links returns the aggregate leaf-level link count (procs), a reasonable
// capacity figure for a fat tree since bandwidth is preserved toward the
// root.
func (f FatTree) Links(procs int) int {
	if procs < 1 {
		return 1
	}
	return procs
}

// Dragonfly models a two-level hierarchical direct network: processors
// attach to routers, the routers of one group are fully connected by
// local links, and every group pair is joined by a global link. The hop
// count is the canonical minimal route — one terminal hop plus the
// router-level links traversed: 1 within a router, 2 within a group
// (one local link), and 4 across groups (local + global + local).
type Dragonfly struct {
	// RoutersPerGroup is the group size a (routers fully connected by
	// local links). Zero means 4.
	RoutersPerGroup int
	// ProcsPerRouter is the terminal count p per router. Zero means 2.
	ProcsPerRouter int
}

func (d Dragonfly) shape() (a, p int) {
	a, p = d.RoutersPerGroup, d.ProcsPerRouter
	if a <= 1 {
		a = 4
	}
	if p < 1 {
		p = 2
	}
	return a, p
}

func (d Dragonfly) Name() string {
	a, p := d.shape()
	return fmt.Sprintf("dragonfly%dx%d", a, p)
}

// Hops returns 0 for self, 1 for processors on the same router, 2 within
// a group, and 4 across groups (the minimal local-global-local route).
func (d Dragonfly) Hops(src, dst, _ int) int {
	if src == dst {
		return 0
	}
	a, p := d.shape()
	sr, dr := src/p, dst/p
	if sr == dr {
		return 1
	}
	if sr/a == dr/a {
		return 2
	}
	return 4
}

// Links counts terminal links (one per processor), the a·(a−1)/2 local
// links of each group, and the g·(g−1)/2 global links between groups.
func (d Dragonfly) Links(procs int) int {
	if procs < 1 {
		return 1
	}
	a, p := d.shape()
	routers := (procs + p - 1) / p
	groups := (routers + a - 1) / a
	l := procs + groups*a*(a-1)/2 + groups*(groups-1)/2
	if l < 1 {
		l = 1
	}
	return l
}
