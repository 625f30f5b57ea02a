package compose

import (
	"errors"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/pcxx"
	"extrap/internal/pcxx/dist"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Synthesis: a normalized pattern tree determines its 1-processor
// measurement trace, so the trace is written straight from the spec
// instead of running an SPMD program on cooperative threads.
//
// The program a spec stands for is a pC++-style SPMD body over
// collections, one per leaf buffer, numbered in creation order: a
// pipeline's stages before its handoff buffer, a task farm's task
// collection before its partials. Node i of the DFS pre-order seeds its
// imbalance draws with (i+1)·0x9e3779b97f4a7c15. Per thread t of n:
//   - pipeline: after each stage, a barrier, a remote read of the
//     upstream neighbor's (t−1 mod n) buffer element, one flop, and a
//     barrier — the classic software pipeline shift.
//   - task_farm: tasks are dealt cyclically; each owned task computes an
//     imbalance-scaled grain, then a tree reduction combines per-thread
//     partials.
//   - stencil: a width(×height) grid is block-distributed (2-D over a
//     ⌊√n⌋² processor grid); each sweep visits the owned cells in
//     row-major order, reads the clamped up, down, left and right
//     neighbors (remote only at block boundaries — the halo), computes
//     the cell's grain, and barriers.
//   - reduction: a per-thread grain followed by a tree (a barrier per
//     log₂ n round, in which thread t reads t+stride when t is a multiple
//     of 2·stride, then a flop) or flat (a barrier, reads of every other
//     thread's partial, n flops, a barrier) combine.
//   - bsp: supersteps of compute, a barrier, a read of partner
//     (t+s+1 mod n), and a barrier.
//   - seq: children in order with separating barriers; par: children in
//     order without them, so their communication overlaps in the trace.
//
// Every barrier is global and the barrier sequence is a function of the
// tree alone, never of a thread's id. A measured run on one processor
// switches threads only at barriers, and every barrier epoch runs its
// threads in id order on one virtual clock (the pcxx runtime's resume
// order). The trace is therefore, epoch by epoch and thread by thread:
// the thread's opener (ThreadStart in the first epoch, the exit of the
// previous barrier after it), its fragment of the epoch, and its closer
// (the entry of the epoch's barrier, or ThreadEnd after the last epoch).
// Every record advances the clock by the event overhead, every flop by
// the cost model's FlopTime, and only reads of elements another thread
// owns are recorded. The pcxx form of the same program is the test
// oracle (lower_oracle_test.go); the two traces are byte-identical.

// errTooManyEvents stops the counting pass once it passes
// trace.MaxTraceEvents, the events one materialized trace may hold.
// WorkUnits only estimates a composed workload's events, so a request
// within the work budget can still demand more; synthesis counts them
// exactly and refuses with trace.ErrTraceTooLarge before allocating.
var errTooManyEvents = errors.New("compose: too many events")

// Factory implements benchmarks.Benchmark: it instantiates the workload
// at a thread count, with the size's N scaling every node's compute
// magnitude and Iters repeating the whole tree.
func (w *Workload) Factory(size benchmarks.Size) core.ProgramFactory {
	scale := max(size.N, 1)
	iters := max(size.Iters, 1)
	return func(threads int) core.Program {
		return core.Program{
			Name:    w.name,
			Threads: threads,
			Emit: func(cfg pcxx.Config) (*trace.Trace, error) {
				nodesLowered.Add(int64(w.nodes))
				return synthesize(&w.spec.Root, scale, iters, cfg)
			},
		}
	}
}

// synthesize writes the measurement trace of iters repetitions of the
// tree, separated by barriers, at cfg.Threads threads.
func synthesize(root *Node, scale, iters int, cfg pcxx.Config) (*trace.Trace, error) {
	n := cfg.Threads
	if cfg.EventOverhead < 0 || cfg.Cost.FlopTime < 0 {
		return nil, fmt.Errorf("compose: negative event overhead %d or flop time %d", cfg.EventOverhead, cfg.Cost.FlopTime)
	}
	f := flatten(root, scale, n)
	// Every iteration writes the same number of events, so counting one
	// sizes the trace exactly before anything is allocated for it.
	per, err := f.count(cfg.Interrupt)
	if err != nil {
		return nil, err
	}
	if per > trace.MaxTraceEvents/int64(iters) {
		return nil, fmt.Errorf("%w: %d iterations at %d threads write more than %d events",
			trace.ErrTraceTooLarge, iters, n, trace.MaxTraceEvents)
	}
	w := &writer{
		n:         n,
		flopTime:  cfg.Cost.FlopTime,
		overhead:  cfg.EventOverhead,
		events:    make([]trace.Event, 0, per*int64(iters)),
		interrupt: cfg.Interrupt,
	}
	if err := f.walk(w, iters); err != nil {
		return nil, err
	}
	return &trace.Trace{NumThreads: n, EventOverhead: cfg.EventOverhead, Events: w.events}, nil
}

// flatten returns one iteration of the tree at n threads as barrier
// epochs.
func flatten(root *Node, scale, n int) *flattener {
	f := &flattener{n: n, scale: scale, epochs: make([][]step, 1)}
	f.node(root)
	return f
}

// count returns how many events one iteration writes, stopping once the
// count passes trace.MaxTraceEvents.
func (f *flattener) count(interrupt func() error) (int64, error) {
	w := &writer{n: f.n, counting: true, interrupt: interrupt}
	if err := f.walk(w, 1); err != nil && !errors.Is(err, errTooManyEvents) {
		return 0, err
	}
	return w.count, nil
}

// step is one node's share of a barrier epoch: code every thread runs,
// evaluated at the thread's id as the trace is written.
type step interface {
	emit(w *writer, t int)
}

// flattener turns a tree into one iteration's barrier epochs, mirroring
// the lowering's numbering of nodes and collections.
type flattener struct {
	n      int
	scale  int
	epochs [][]step
	nodes  int   // DFS pre-order index of the next node
	colls  int32 // id of the next collection
}

// barrier closes the current epoch.
func (f *flattener) barrier() { f.epochs = append(f.epochs, nil) }

// add appends a step to the current epoch.
func (f *flattener) add(s step) {
	last := len(f.epochs) - 1
	f.epochs[last] = append(f.epochs[last], s)
}

// newCollection creates the next collection.
func (f *flattener) newCollection(msg int64) collection {
	c := collection{id: f.colls, bytes: msg}
	f.colls++
	return c
}

// node flattens one node, assigning it the next DFS pre-order index.
func (f *flattener) node(nd *Node) {
	id := f.nodes
	f.nodes++
	seed := uint64(id+1) * 0x9e3779b97f4a7c15
	msg := int64(nd.MessageBytes)
	grain := nd.Grain * f.scale

	switch nd.Kind {
	case KindSeq:
		for i := range nd.Children {
			if i > 0 {
				f.barrier()
			}
			f.node(&nd.Children[i])
		}

	case KindPar:
		for i := range nd.Children {
			f.node(&nd.Children[i])
		}

	case KindPipeline:
		// The buffer is created after the stages' collections.
		buf := new(collection)
		for i := range nd.Stages {
			f.node(&nd.Stages[i])
			f.barrier()
			f.add(exchange{buf: buf, offset: f.n - 1, flops: 1})
			f.barrier()
		}
		*buf = f.newCollection(msg)

	case KindTaskFarm:
		f.newCollection(msg) // the tasks, written only by their owners
		part := f.newCollection(msg)
		sums := make(compute, f.n)
		for k := 0; k < nd.Tasks; k++ {
			sums[k%f.n] += int64(grainFlops(grain, imbFactor(seed, k, nd.Imbalance)))
		}
		f.add(sums)
		f.treeReduce(part)

	case KindStencil:
		sw := newSweep(nd, f.n, grain, seed, f.newCollection(msg))
		for s := 0; s < nd.Sweeps; s++ {
			f.add(sw)
			f.barrier()
		}

	case KindReduction:
		part := f.newCollection(msg)
		f.add(f.perThread(grain, seed, nd.Imbalance))
		if nd.Op == OpFlat {
			f.barrier()
			f.add(gather{part: part})
			f.barrier()
		} else {
			f.treeReduce(part)
		}

	case KindBSP:
		buf := f.newCollection(msg)
		for s := 0; s < nd.Supersteps; s++ {
			f.add(f.perThread(grain, seed+uint64(s), nd.Imbalance))
			f.barrier()
			f.add(exchange{buf: &buf, offset: s + 1})
			f.barrier()
		}

	default:
		// Unreachable: validate rejects unknown kinds.
		panic(fmt.Sprintf("compose: flattening unknown kind %q", nd.Kind))
	}
}

// perThread is the compute step charging each thread its own grain,
// drawn by thread id.
func (f *flattener) perThread(grain int, seed uint64, imb float64) compute {
	c := make(compute, f.n)
	for t := range c {
		c[t] = int64(grainFlops(grain, imbFactor(seed, t, imb)))
	}
	return c
}

// treeReduce appends a binary-tree reduction over the per-thread
// partials part: a barrier per round, then a closing barrier.
func (f *flattener) treeReduce(part collection) {
	for stride := 1; stride < f.n; stride *= 2 {
		f.barrier()
		f.add(treeRound{part: part, stride: stride})
	}
	f.barrier()
}

// walk writes iters repetitions of the epochs through w, barriers
// between them, polling w between thread fragments.
func (f *flattener) walk(w *writer, iters int) error {
	ne := len(f.epochs)
	last := iters*ne - 1
	for it := 0; it < iters; it++ {
		for j, steps := range f.epochs {
			g := it*ne + j
			for t := 0; t < f.n; t++ {
				if g == 0 {
					w.record(trace.Event{Kind: trace.KindThreadStart, Thread: int32(t), Arg0: int64(f.n)})
				} else {
					w.record(trace.Event{Kind: trace.KindBarrierExit, Thread: int32(t), Arg0: int64(g - 1)})
				}
				for _, s := range steps {
					s.emit(w, t)
				}
				if g == last {
					w.record(trace.Event{Kind: trace.KindThreadEnd, Thread: int32(t)})
				} else {
					w.record(trace.Event{Kind: trace.KindBarrierEntry, Thread: int32(t), Arg0: int64(g)})
				}
				if err := w.poll(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writer is the measurement host: one virtual clock and the merged
// trace. A counting writer only counts the records.
type writer struct {
	n         int
	flopTime  vtime.Time
	overhead  vtime.Time
	clock     vtime.Time
	counting  bool
	events    []trace.Event
	count     int64
	polled    int64
	interrupt func() error
}

// record appends an event at the current time and charges the event
// overhead.
func (w *writer) record(e trace.Event) {
	w.count++
	if w.counting {
		return
	}
	e.Time = w.clock
	w.events = append(w.events, e)
	w.clock += w.overhead
}

// flops charges k floating-point operations.
func (w *writer) flops(k int64) { w.clock += vtime.Time(k) * w.flopTime }

// poll checks the interrupt every pcxx.InterruptEvery records, and
// stops a counting pass past trace.MaxTraceEvents.
func (w *writer) poll() error {
	if w.counting && w.count > trace.MaxTraceEvents {
		return errTooManyEvents
	}
	if w.interrupt == nil || w.count-w.polled < pcxx.InterruptEvery {
		return nil
	}
	w.polled = w.count
	if err := w.interrupt(); err != nil {
		return fmt.Errorf("measurement interrupted: %w", err)
	}
	return nil
}

// collection is a collection that reads record against: its id and its
// element size, the transfer size of every read in either size mode.
type collection struct {
	id    int32
	bytes int64
}

// read records thread t's read of element elem, owned by owner.
func (c collection) read(w *writer, t, owner, elem int) {
	w.record(trace.Event{
		Kind:   trace.KindRemoteRead,
		Thread: int32(t),
		Arg0:   int64(owner),
		Arg1:   c.bytes,
		Arg2:   trace.PackRef(c.id, int32(elem)),
	})
}

// compute charges thread t compute[t] flops.
type compute []int64

func (c compute) emit(w *writer, t int) { w.flops(c[t]) }

// exchange reads element t+offset (mod n) of a per-thread buffer, a
// record unless it is t's own, then charges flops.
type exchange struct {
	buf    *collection
	offset int
	flops  int64
}

func (s exchange) emit(w *writer, t int) {
	if p := (t + s.offset) % w.n; p != t {
		s.buf.read(w, t, p, p)
	}
	w.flops(s.flops)
}

// treeRound is one round of a tree reduction: thread t, a multiple of
// 2·stride, folds in partner t+stride's partial.
type treeRound struct {
	part   collection
	stride int
}

func (s treeRound) emit(w *writer, t int) {
	if p := t + s.stride; t%(2*s.stride) == 0 && p < w.n {
		s.part.read(w, t, p, p)
		w.flops(1)
	}
}

// gather is a flat reduction's exchange: thread t reads every other
// thread's partial, then sums n values.
type gather struct {
	part collection
}

func (s gather) emit(w *writer, t int) {
	for p := 0; p < w.n; p++ {
		if p != t {
			s.part.read(w, t, p, p)
		}
	}
	w.flops(int64(w.n))
}

// sweep is one stencil sweep over a width×height grid (height 1 for a
// 1-D stencil), cell (r, c) being element r·width+c.
type sweep struct {
	grid  collection
	w, h  int
	owner dist.Distribution
	tiles []tile  // thread t's owned cells
	cum   []int64 // cum[i] is the flops of cells [0, i)
}

// tile is the rectangle of cells [r0, r1) × [c0, c1) one thread owns.
type tile struct{ r0, r1, c0, c1 int }

// newSweep lays out a stencil node's grid as the lowering does: 1-D
// Block over n threads, or 2-D (Block, Block) over the ⌊√n⌋² processor
// grid, whose remaining threads own nothing.
func newSweep(nd *Node, n, grain int, seed uint64, grid collection) *sweep {
	sw := &sweep{grid: grid, w: nd.Width, h: max(nd.Height, 1), tiles: make([]tile, n)}
	if nd.Height == 0 {
		sw.owner = dist.NewBlock(sw.w, n)
		blk := (sw.w + n - 1) / n
		for t := range sw.tiles {
			if c0 := t * blk; c0 < sw.w {
				sw.tiles[t] = tile{0, 1, c0, min(c0+blk, sw.w)}
			}
		}
	} else {
		d := dist.NewDist2D(sw.h, sw.w, n, dist.Block, dist.Block)
		sw.owner = d
		pr, pc := d.ProcGrid()
		br, bc := (sw.h+pr-1)/pr, (sw.w+pc-1)/pc
		for t := 0; t < pr*pc; t++ {
			if r0, c0 := t/pc*br, t%pc*bc; r0 < sw.h && c0 < sw.w {
				sw.tiles[t] = tile{r0, min(r0+br, sw.h), c0, min(c0+bc, sw.w)}
			}
		}
	}
	sw.cum = make([]int64, sw.w*sw.h+1)
	for i := range sw.w * sw.h {
		sw.cum[i+1] = sw.cum[i] + int64(grainFlops(grain, imbFactor(seed, i, nd.Imbalance)))
	}
	return sw
}

// emit visits thread t's cells. Only a tile's edge cells can have a
// neighbor another thread owns: every cell of a row whose up or down
// neighbor lies outside the tile, and the first and last cell of every
// other row, whose interior cells are charged in one sum.
func (sw *sweep) emit(w *writer, t int) {
	tl := sw.tiles[t]
	for r := tl.r0; r < tl.r1; r++ {
		if (r == tl.r0 && r > 0) || (r == tl.r1-1 && r+1 < sw.h) {
			for c := tl.c0; c < tl.c1; c++ {
				sw.cell(w, t, tl, r, c)
			}
			continue
		}
		sw.cell(w, t, tl, r, tl.c0)
		if last := tl.c1 - 1; last > tl.c0 {
			row := r * sw.w
			w.flops(sw.cum[row+last] - sw.cum[row+tl.c0+1])
			sw.cell(w, t, tl, r, last)
		}
	}
}

// cell reads cell (r, c)'s clamped up, down, left and right neighbors,
// in that order, then charges its grain.
func (sw *sweep) cell(w *writer, t int, tl tile, r, c int) {
	sw.read(w, t, tl, max(r-1, 0), c)
	sw.read(w, t, tl, min(r+1, sw.h-1), c)
	sw.read(w, t, tl, r, max(c-1, 0))
	sw.read(w, t, tl, r, min(c+1, sw.w-1))
	i := r*sw.w + c
	w.flops(sw.cum[i+1] - sw.cum[i])
}

// read records thread t's read of cell (r, c) if the cell lies outside
// t's tile, that is, if another thread owns it.
func (sw *sweep) read(w *writer, t int, tl tile, r, c int) {
	if r < tl.r0 || r >= tl.r1 || c < tl.c0 || c >= tl.c1 {
		i := r*sw.w + c
		sw.grid.read(w, t, sw.owner.Owner(i), i)
	}
}

// imbFactor returns the deterministic load-imbalance factor for element
// k: 1 + imb·u where u is a pure function of (seed, k). It depends on
// no runtime state, so a spec has the same compute magnitudes at every
// thread count, on every node, in every process.
func imbFactor(seed uint64, k int, imb float64) float64 {
	if imb == 0 {
		return 1
	}
	r := vtime.NewRand(seed + uint64(k)*0x100000001b3 + 1)
	return 1 + float64(imb*r.Float64())
}

// grainFlops scales the node grain by the imbalance factor, flooring at
// one flop so every element costs at least one compute event.
func grainFlops(grain int, f float64) int {
	fl := int(float64(grain) * f)
	if fl < 1 {
		fl = 1
	}
	return fl
}
