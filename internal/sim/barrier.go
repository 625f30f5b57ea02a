package sim

import (
	"fmt"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// barSt tracks one global barrier through the simulation. Records live
// in the engine's barrier ring and are recycled, tree tables included,
// when their slot is re-armed for a later id.
type barSt struct {
	used    bool // the slot holds barrier id's state
	id      int64
	entries int
	// maxArrive is the latest entry-completion time (analytic variants
	// and the hardware barrier).
	maxArrive vtime.Time
	// Linear master-slave state.
	masterEntered bool
	masterFreeAt  vtime.Time
	arrivedMsgs   int
	lastArrProc   vtime.Time
	released      bool
	// Tree barrier per-node state: n entries while used under the tree
	// algorithm, empty otherwise (capacity is kept across reuse).
	childGot    []int
	nodeEntered []bool
	nodeFreeAt  []vtime.Time
	releaseSent []bool
}

// barMask maps a barrier id onto its slot in the engine's ring, which
// holds exactly the fast-forward window of the most recent ids.
const barMask = ffBarWindow - 1

// bar returns the state record for barrier id, arming its ring slot on
// first touch. Only the last two ids are ever live (see ffBarWindow), so
// a slot's previous occupant, ffBarWindow ids back, is dead when its
// successor arms it. An id below the window, or a negative one, would
// need a recycled record: bar records a sticky engine error instead and
// returns nil, and the caller must return at once.
func (e *engine) bar(id int64) *barSt {
	b := &e.bars[id&barMask]
	if b.used && b.id == id {
		return b
	}
	if id < 0 || id < e.barHi-ffBarWindow {
		if e.fail == nil {
			e.fail = fmt.Errorf("sim: barrier %d is not among the %d most recent (latest %d); its state was recycled",
				id, ffBarWindow, e.barHi-1)
		}
		return nil
	}
	n := 0
	if e.cfg.Barrier.Algorithm == TreeBarrier {
		n = e.n
	}
	*b = barSt{
		used:        true,
		id:          id,
		childGot:    zeroed(b.childGot, n),
		nodeEntered: zeroed(b.nodeEntered, n),
		nodeFreeAt:  zeroed(b.nodeFreeAt, n),
		releaseSent: zeroed(b.releaseSent, n),
	}
	if id >= e.barHi {
		e.barHi = id + 1
	}
	e.nbars++
	return b
}

// zeroed returns s resized to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// numChildren returns the child count of node i in the binary combining
// tree over n threads.
func numChildren(i, n int) int {
	c := 0
	if 2*i+1 < n {
		c++
	}
	if 2*i+2 < n {
		c++
	}
	return c
}

// barrierEnter simulates thread t reaching global barrier id at e.now.
func (e *engine) barrierEnter(t *thr, id int64) {
	b := e.bar(id)
	if b == nil {
		return
	}
	b.entries++
	bc := &e.cfg.Barrier
	e.emit(e.now, trace.KindBarrierEntry, t.id, id, 0, 0)
	entryDone := e.now + bc.EntryTime

	switch bc.Algorithm {
	case HardwareBarrier:
		e.block(t, tsWaitBarrier, entryDone)
		if entryDone > b.maxArrive {
			b.maxArrive = entryDone
		}
		if b.entries == e.n {
			release := b.maxArrive + bc.HardwareTime
			for i := range e.threads {
				th := &e.threads[i]
				e.fel.schedule(release+bc.ExitTime, evResume, int32(th.id), th.gen, noMsg)
			}
		}

	case LinearBarrier:
		if !bc.ByMsgs {
			e.block(t, tsWaitBarrier, entryDone)
			if entryDone > b.maxArrive {
				b.maxArrive = entryDone
			}
			if t.id == 0 {
				b.masterEntered = true
				b.masterFreeAt = entryDone
			}
			if b.entries == e.n {
				release := vtime.Max(b.maxArrive, b.masterFreeAt) + bc.CheckTime + bc.ModelTime
				for i := range e.threads {
					th := &e.threads[i]
					exit := release + bc.ExitTime
					if th.id != 0 {
						exit += bc.ExitCheckTime
					}
					e.fel.schedule(exit, evResume, int32(th.id), th.gen, noMsg)
				}
			}
			return
		}
		if t.id == 0 {
			e.block(t, tsWaitBarrier, entryDone)
			b.masterEntered = true
			b.masterFreeAt = entryDone
			e.checkLinearComplete(b)
		} else {
			net := e.netFor(t.proc, e.threads[0].proc)
			sendOv := net.SendOverhead(bc.MsgSize)
			injectAt := entryDone + sendOv
			m := e.msgs.new(mBarArrive, t.id, 0, bc.MsgSize, id)
			raw := net.Inject(injectAt, t.proc, e.threads[0].proc, bc.MsgSize)
			e.fel.schedule(raw, evMsgArrive, 0, 0, m)
			e.emit(injectAt, trace.KindMsgSend, t.id, 0, bc.MsgSize, int64(mBarArrive))
			e.block(t, tsWaitBarrier, injectAt)
		}

	case TreeBarrier:
		if !bc.ByMsgs {
			e.block(t, tsWaitBarrier, entryDone)
			if entryDone > b.maxArrive {
				b.maxArrive = entryDone
			}
			if b.entries == e.n {
				depth := vtime.Time(log2ceil(e.n))
				release := b.maxArrive + depth*bc.CheckTime + bc.ModelTime
				for i := range e.threads {
					th := &e.threads[i]
					exit := release + depth*bc.ExitCheckTime + bc.ExitTime
					e.fel.schedule(exit, evResume, int32(th.id), th.gen, noMsg)
				}
			}
			return
		}
		e.block(t, tsWaitBarrier, entryDone)
		b.nodeEntered[t.id] = true
		if entryDone > b.nodeFreeAt[t.id] {
			b.nodeFreeAt[t.id] = entryDone
		}
		e.checkTreeNode(b, t.id)

	default:
		panic(fmt.Sprintf("sim: unknown barrier algorithm %v", bc.Algorithm))
	}
}

// checkLinearComplete fires the master's release sequence once the master
// has entered and every slave's arrival message has been processed.
func (e *engine) checkLinearComplete(b *barSt) {
	if b.released || !b.masterEntered || b.arrivedMsgs != e.n-1 {
		return
	}
	b.released = true
	bc := &e.cfg.Barrier
	start := vtime.Max(b.lastArrProc, b.masterFreeAt) + bc.ModelTime
	masterProc := e.threads[0].proc
	at := start
	// The master releases slaves one after another — the linear cost of
	// the algorithm.
	for s := 1; s < e.n; s++ {
		net := e.netFor(masterProc, e.threads[s].proc)
		at += net.SendOverhead(bc.MsgSize)
		m := e.msgs.new(mBarRelease, 0, s, bc.MsgSize, b.id)
		raw := net.Inject(at, masterProc, e.threads[s].proc, bc.MsgSize)
		e.fel.schedule(raw, evMsgArrive, 0, 0, m)
		e.emit(at, trace.KindMsgSend, 0, int64(s), bc.MsgSize, int64(mBarRelease))
	}
	master := &e.threads[0]
	e.fel.schedule(at+bc.ExitTime, evResume, 0, master.gen, noMsg)
}

// barrierArriveServiced is called when a barrier arrival message has been
// processed (its CheckTime paid) at time doneAt.
func (e *engine) barrierArriveServiced(m *message, doneAt vtime.Time) {
	b := e.bar(m.barrier)
	if b == nil {
		return
	}
	switch e.cfg.Barrier.Algorithm {
	case LinearBarrier:
		b.arrivedMsgs++
		if doneAt > b.lastArrProc {
			b.lastArrProc = doneAt
		}
		e.checkLinearComplete(b)
	case TreeBarrier:
		node := m.dst
		b.childGot[node]++
		if doneAt > b.nodeFreeAt[node] {
			b.nodeFreeAt[node] = doneAt
		}
		e.checkTreeNode(b, node)
	default:
		panic("sim: barrier arrival under non-message barrier")
	}
}

// checkTreeNode advances the combining tree: when node has entered and
// heard from all children, it reports to its parent (or starts the release
// if it is the root).
func (e *engine) checkTreeNode(b *barSt, node int) {
	if !b.nodeEntered[node] || b.childGot[node] != numChildren(node, e.n) {
		return
	}
	bc := &e.cfg.Barrier
	if node == 0 {
		if b.released {
			return
		}
		b.released = true
		e.treeRelease(b, 0, b.nodeFreeAt[0]+bc.ModelTime)
		return
	}
	parent := (node - 1) / 2
	nodeProc := e.threads[node].proc
	parentProc := e.threads[parent].proc
	net := e.netFor(nodeProc, parentProc)
	injectAt := b.nodeFreeAt[node] + net.SendOverhead(bc.MsgSize)
	m := e.msgs.new(mBarArrive, node, parent, bc.MsgSize, b.id)
	raw := net.Inject(injectAt, nodeProc, parentProc, bc.MsgSize)
	e.fel.schedule(raw, evMsgArrive, 0, 0, m)
	e.emit(injectAt, trace.KindMsgSend, node, int64(parent), bc.MsgSize, int64(mBarArrive))
}

// treeRelease sends release messages from node to its children starting at
// time at and schedules node's own exit.
func (e *engine) treeRelease(b *barSt, node int, at vtime.Time) {
	bc := &e.cfg.Barrier
	if b.releaseSent[node] {
		return
	}
	b.releaseSent[node] = true
	nodeProc := e.threads[node].proc
	for _, c := range []int{2*node + 1, 2*node + 2} {
		if c >= e.n {
			continue
		}
		net := e.netFor(nodeProc, e.threads[c].proc)
		at += net.SendOverhead(bc.MsgSize)
		m := e.msgs.new(mBarRelease, node, c, bc.MsgSize, b.id)
		raw := net.Inject(at, nodeProc, e.threads[c].proc, bc.MsgSize)
		e.fel.schedule(raw, evMsgArrive, 0, 0, m)
		e.emit(at, trace.KindMsgSend, node, int64(c), bc.MsgSize, int64(mBarRelease))
	}
	t := &e.threads[node]
	e.fel.schedule(at+bc.ExitTime, evResume, int32(node), t.gen, noMsg)
}

// barrierReleaseArrive handles a release message reaching a waiting
// thread: it notices the release, (tree) forwards it to its children, and
// exits.
func (e *engine) barrierReleaseArrive(m *message) {
	t := &e.threads[m.dst]
	if t.state != tsWaitBarrier {
		panic(fmt.Sprintf("sim: release for thread %d in state %d", t.id, t.state))
	}
	bc := &e.cfg.Barrier
	p := &e.procs[t.proc]
	noticed := vtime.Max(e.now+bc.ExitCheckTime, p.svcBusyUntil)
	if e.cfg.Barrier.Algorithm == TreeBarrier {
		b := e.bar(m.barrier)
		if b == nil {
			return
		}
		e.treeRelease(b, t.id, noticed)
		// treeRelease scheduled the exit (after forwarding to children).
		return
	}
	e.fel.schedule(noticed+bc.ExitTime, evResume, int32(t.id), t.gen, noMsg)
}

// resumeFromBarrier completes t's barrier: the pending barrier-exit trace
// event is consumed at e.now and the thread continues.
func (e *engine) resumeFromBarrier(t *thr) {
	if t.state != tsWaitBarrier {
		panic(fmt.Sprintf("sim: barrier resume for thread %d in state %d", t.id, t.state))
	}
	ev := t.peek()
	if ev.Kind != trace.KindBarrierExit {
		panic(fmt.Sprintf("sim: thread %d resumed from barrier onto %v event", t.id, ev.Kind))
	}
	e.emit(e.now, trace.KindBarrierExit, t.id, ev.Arg0, 0, 0)
	t.stats.BarrierWait += e.now - t.blockAt
	t.stats.Barriers++
	e.consume(t, ev)
	e.continueThread(t, e.now)
}

// log2ceil returns ceil(log2(n)) for n ≥ 1.
func log2ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}
