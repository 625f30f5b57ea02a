package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"extrap/internal/compose"
	"extrap/internal/machine"
	"extrap/internal/serve"
)

const (
	pathExtrapolate = "/v1/extrapolate"
	pathSweep       = "/v1/sweep"
)

// defaultLadder is the server's sweep ladder when a request names none.
var defaultLadder = []int{1, 2, 4, 8, 16, 32}

// request is one HTTP call of a workload.
type request struct {
	path string
	body []byte
	// hash keys the request in the golden files.
	hash string
	// cells is how many ladder cells the response answers: 1 for an
	// extrapolation, ladder × machines for a sweep.
	cells int
}

func newRequest(path string, v any, cells int) *request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshaling a generated request: %v", err))
	}
	return &request{path: path, body: body, hash: shortHash(body), cells: cells}
}

// shortHash is the golden-file key of a body: a 10-hex-digit SHA-256
// prefix, long enough that no two of a workload's requests collide.
func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:5])
}

// workload is one traffic mix. Its measured stream is a pure function of
// the seed. Every body any seed can draw is listed up front in warm and
// classes, which is what the committed goldens cover, so every response
// of every seed is checked.
type workload struct {
	name string
	// warm is sent during set-up to fill the measurement cache.
	warm []*request
	// classes partition the requests the measured stream draws from.
	classes [][]*request
	// cold workloads never repeat a request: a run takes one request
	// from each block of coldBlock consecutive entries of a class, and
	// sends one request per class per round. Warm workloads repeat rounds
	// that hold every class entry once. Either way every seed sends the
	// same mix in its own order.
	cold bool
	// rounds caps a warm workload's stream at this many rounds.
	rounds int
	// traceK is how many requests the traced run replays.
	traceK int
}

// stream returns the measured request sequence for seed.
func (w *workload) stream(seed int64) []*request {
	rng := rand.New(rand.NewSource(seed))
	var out []*request
	if !w.cold {
		var pool []*request
		for _, c := range w.classes {
			pool = append(pool, c...)
		}
		for r := 0; r < w.rounds; r++ {
			round := append([]*request(nil), pool...)
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			out = append(out, round...)
		}
		return out
	}
	picks := make([][]*request, len(w.classes))
	for i, c := range w.classes {
		var p []*request
		for b := 0; b+coldBlock <= len(c); b += coldBlock {
			p = append(p, c[b+rng.Intn(coldBlock)])
		}
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		picks[i] = p
	}
	for turn := 0; ; turn++ {
		var round []*request
		for _, p := range picks {
			if turn < len(p) {
				round = append(round, p[turn])
			}
		}
		if len(round) == 0 {
			return out
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
}

// coldBlock is the block of class entries a cold run takes one request
// from. Entries are ordered by size or cost within a class, so each run
// samples the whole range alike and uses a quarter of the key space.
const coldBlock = 4

// warnHitRatio reports a measured phase whose measurement-cache traffic
// contradicts the workload's kind: a warm phase must only hit, a cold
// one only miss.
func warnHitRatio(w *workload, hits, misses int64) {
	if (w.cold && hits != 0) || (!w.cold && misses != 0) {
		fmt.Fprintf(os.Stderr, "warning: %s measured phase had %d cache hits and %d misses\n", w.name, hits, misses)
	}
}

// universe lists every distinct request the workload can send.
func (w *workload) universe() []*request {
	seen := map[string]bool{}
	var out []*request
	add := func(rs []*request) {
		for _, r := range rs {
			if !seen[r.hash] {
				seen[r.hash] = true
				out = append(out, r)
			}
		}
	}
	add(w.warm)
	for _, c := range w.classes {
		add(c)
	}
	return out
}

func machineNames() []string {
	var names []string
	for _, e := range machine.Presets() {
		names = append(names, e.Name)
	}
	return names
}

var workloads = []func() *workload{extrapolateWarm, whatifWarm, sweepCold, composeCold}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, mk := range workloads {
		w := mk()
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// extrapolateWarm is the interactive single question: every measurement
// is cached in set-up, so per-request overhead and small-trace simulation
// dominate.
func extrapolateWarm() *workload {
	programs := []string{"embar", "cyclic", "poisson", "sort", "grid", "pipeline8", "farm-stencil", "bsp-reduce"}
	machines := machineNames()
	w := &workload{name: "extrapolate-warm", rounds: 200, traceK: 2000}
	var pool []*request
	for _, p := range programs {
		for _, t := range []int{8, 16, 32} {
			w.warm = append(w.warm, newRequest(pathExtrapolate,
				serve.ExtrapolateRequest{Benchmark: p, Threads: t, Machine: machines[0]}, 1))
			for _, procs := range []int{t, t / 2, t / 4} {
				for _, m := range machines {
					pool = append(pool, newRequest(pathExtrapolate,
						serve.ExtrapolateRequest{Benchmark: p, Threads: t, Procs: procs, Machine: m}, 1))
				}
			}
		}
	}
	w.classes = [][]*request{pool}
	return w
}

// whatifWarm is "measure once, ask many what-if questions": every
// measurement of 1..32 threads is cached in set-up; two thirds of the
// requests are exact four-machine sweeps and one third fitted sweeps over
// procs 1..32.
func whatifWarm() *workload {
	kernels := []string{"grid", "mgrid", "matmul", "cyclic"}
	machines := machineNames()
	fitted := make([]int, 32)
	for i := range fitted {
		fitted[i] = i + 1
	}
	w := &workload{name: "whatif-warm", rounds: 200, traceK: 200}
	var pool []*request
	for _, k := range kernels {
		for t := 1; t <= 32; t++ {
			w.warm = append(w.warm, newRequest(pathExtrapolate,
				serve.ExtrapolateRequest{Benchmark: k, Threads: t, Machine: "ideal"}, 1))
		}
		exact := newRequest(pathSweep, serve.SweepRequest{Benchmark: k, Machines: machines},
			len(defaultLadder)*len(machines))
		// Eight copies of each exact sweep against one of each of the four
		// fitted sweeps make the two-to-one mix.
		for i := 0; i < 2*len(machines); i++ {
			pool = append(pool, exact)
		}
		for _, m := range machines {
			pool = append(pool, newRequest(pathSweep,
				serve.SweepRequest{Benchmark: k, Machine: m, Mode: "fitted", Procs: fitted}, len(fitted)))
		}
	}
	w.classes = [][]*request{pool}
	return w
}

// coldKernel is one kernel's key space in sweep-cold: every (size,
// iters) pair of the two ranges. Kernels whose program ignores iters
// still key their measurements by it, so a distinct iters value is a
// distinct measurement to the server.
type coldKernel struct {
	name       string
	nLo, nHi   int
	itLo, itHi int
}

// sweepColdKernels bound each kernel's size so a ladder takes tens of
// milliseconds. Grid starts at N = 20 because smaller grids fail to
// measure at 32 threads (see README, "Known input gaps").
var sweepColdKernels = []coldKernel{
	{"embar", 14, 16, 1, 220},
	{"cyclic", 600, 673, 24, 32},
	{"grid", 20, 63, 26, 40},
	{"mgrid", 16, 79, 1, 2},
	{"poisson", 40, 72, 1, 20},
	{"sort", 16000, 16659, 0, 0},
	{"sparse", 1200, 1859, 1, 1},
}

// sweepCold is the first question about a new program: every request is
// a distinct (kernel, size, iters), so each ladder cell is measured,
// encoded and written to the store. Set-up sends one sweep per kernel
// with iters just past its range, so the measured requests stay cold.
func sweepCold() *workload {
	machines := machineNames()
	w := &workload{name: "sweep-cold", cold: true, traceK: 200}
	sweep := func(kernel string, n, it int, m string) *request {
		return newRequest(pathSweep, serve.SweepRequest{Benchmark: kernel, Size: n, Iters: it, Machine: m}, len(defaultLadder))
	}
	for i, k := range sweepColdKernels {
		w.warm = append(w.warm, sweep(k.name, k.nLo, k.itHi+1, machines[i%len(machines)]))
		var class []*request
		for n := k.nLo; n <= k.nHi; n++ {
			for it := k.itLo; it <= k.itHi; it++ {
				class = append(class, sweep(k.name, n, it, machines[len(class)%len(machines)]))
			}
		}
		w.classes = append(w.classes, class)
	}
	return w
}

// composeSpecs is the size of compose-cold's spec universe; a run takes
// a quarter of it.
const composeSpecs = 8000

// composeClasses splits the spec universe by estimated work into this
// many classes, one request of each per round.
const composeClasses = 8

// composeUniverseSeed fixes the spec universe, so the goldens cover every
// seed's draw.
const composeUniverseSeed = 0x636f6d70

// composeWarm is how many further specs compose-cold's set-up sends.
const composeWarm = 16

// composeCold sends distinct composed workloads: each spec is lowered,
// measured and mined from scratch. Set-up sends the next specs the
// generator draws after the universe, which no run sends.
func composeCold() *workload {
	machines := machineNames()
	w := &workload{name: "compose-cold", cold: true, traceK: 400}
	type spec struct {
		req  *request
		work int64
	}
	rng := rand.New(rand.NewSource(composeUniverseSeed))
	seen := map[string]bool{}
	var specs []spec
	for len(specs) < composeSpecs+composeWarm {
		raw, err := json.Marshal(randomSpec(rng))
		if err != nil {
			panic(fmt.Sprintf("bench: marshaling a generated spec: %v", err))
		}
		wl, err := compose.FromJSON(raw)
		if err != nil {
			panic(fmt.Sprintf("bench: generated an invalid spec %s: %v", raw, err))
		}
		if seen[wl.Name()] {
			continue // redraw a duplicate
		}
		seen[wl.Name()] = true
		m := machines[len(specs)%len(machines)]
		specs = append(specs, spec{
			req:  newRequest(pathSweep, serve.SweepRequest{Workload: raw, Machine: m}, len(defaultLadder)),
			work: wl.WorkUnits(wl.DefaultSize(), defaultLadder[len(defaultLadder)-1]),
		})
	}
	for _, s := range specs[composeSpecs:] {
		w.warm = append(w.warm, s.req)
	}
	specs = specs[:composeSpecs]
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].work < specs[j].work })
	per := composeSpecs / composeClasses
	for c := 0; c < composeClasses; c++ {
		var class []*request
		for _, s := range specs[c*per : (c+1)*per] {
			class = append(class, s.req)
		}
		w.classes = append(w.classes, class)
	}
	return w
}

// maxSpecDepth bounds generated pattern trees (the root is depth 1).
const maxSpecDepth = 3

func randomSpec(r *rand.Rand) compose.Spec {
	return compose.Spec{Size: 4 + r.Intn(29), Iters: 1 + r.Intn(2), Root: randomNode(r, 1)}
}

// randomNode draws a pattern node. The root is always a combinator so
// every spec nests; below it a node is a combinator with probability one
// in three until the depth bound. Every field a kind takes is set to a
// non-default value, so the marshaled spec is already normalized.
func randomNode(r *rand.Rand, depth int) compose.Node {
	if depth == 1 || (depth < maxSpecDepth && r.Intn(3) == 0) {
		kids := make([]compose.Node, 2+r.Intn(2))
		for i := range kids {
			kids[i] = randomNode(r, depth+1)
		}
		switch r.Intn(3) {
		case 0:
			n := leafParams(r, compose.KindPipeline)
			n.Stages = kids
			return n
		case 1:
			return compose.Node{Kind: compose.KindSeq, Children: kids}
		default:
			return compose.Node{Kind: compose.KindPar, Children: kids}
		}
	}
	switch r.Intn(4) {
	case 0:
		n := leafParams(r, compose.KindTaskFarm)
		n.Tasks = 8 + r.Intn(49)
		return n
	case 1:
		n := leafParams(r, compose.KindStencil)
		n.Width = 8 + r.Intn(25)
		if r.Intn(2) == 0 {
			n.Height = 2 + r.Intn(4)
		}
		n.Sweeps = 1 + r.Intn(2)
		return n
	case 2:
		n := leafParams(r, compose.KindReduction)
		n.Op = []string{compose.OpTree, compose.OpFlat}[r.Intn(2)]
		return n
	default:
		n := leafParams(r, compose.KindBSP)
		n.Supersteps = 1 + r.Intn(4)
		return n
	}
}

// leafParams draws the grain, message size and imbalance every
// non-combinator kind takes.
func leafParams(r *rand.Rand, kind string) compose.Node {
	return compose.Node{
		Kind:         kind,
		Grain:        1 + r.Intn(16),
		MessageBytes: 16 << r.Intn(7),
		Imbalance:    float64(r.Intn(5)) * 0.25,
	}
}
