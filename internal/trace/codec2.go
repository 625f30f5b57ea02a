package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// XTRP2: a loop-compacted binary trace format.
//
// The measured traces of data-parallel programs are overwhelmingly
// repeated per-iteration subsequences — the same compute/communicate/
// barrier pattern, iteration after iteration, with timestamps and
// barrier ids advancing by constant strides. XTRP2 exploits that
// redundancy in two layers:
//
//  1. Delta rows. Each event is rewritten as a delta row: the kind byte
//     plus five zigzag varints — the time and thread deltas against the
//     previous event in the merged stream, and the three arg deltas
//     against the previous event OF THE SAME KIND. The per-kind arg
//     context turns "barrier id increments every iteration" and "same
//     remote-access pattern every iteration" into rows that are
//     byte-identical across iterations.
//  2. Loop detection. A rolling-hash pattern miner finds maximal runs
//     where a block of p delta rows repeats c times, hoists the block
//     into a pattern table, and replaces the run with repeat(id, c).
//
// Wire layout (integers little-endian, varints as encoding/binary):
//
//	magic     [5]byte  "XTRP2"
//	threads   uint32
//	ovh       int64    per-event instrumentation overhead (ns)
//	nphase    uint32
//	phases    nphase × (uint16 length, bytes)
//	nevents   uint64
//	npattern  uint32
//	patterns  npattern × (uvarint nrows, nrows × row)
//	program   ops until nevents rows have been produced:
//	            0x00 uvarint count, count × row   (literal run)
//	            0x01 uvarint id, uvarint count    (replay pattern id count times)
//	row       uint8 kind, 5 × zigzag-uvarint (dtime, dthread, darg0..2)
//
// Decoding compiles the stream once (CompileBinary: header, pattern
// table and program parsed and validated up front) and applies the
// delta state machine in reverse, replaying pattern bodies from
// pre-parsed rows — each replayed event costs a few integer adds
// instead of a varint re-parse. The transform is exactly invertible for
// every valid event stream, so predictions computed from the XTRP2
// bytes equal those computed from the events they encode.

var binary2Magic = [5]byte{'X', 'T', 'R', 'P', '2'}

// Hardening limits for the XTRP2 pattern table, in the same spirit as
// the header caps: no allocation is proportional to a declared count
// until the corresponding bytes have been read, and every cap bounds the
// memory amplification a hostile stream can achieve.
const (
	// MaxPatterns bounds the pattern-table entry count.
	MaxPatterns = 1 << 16
	// MaxPatternRows bounds the rows of a single pattern body. A barrier
	// loop's merged row period is threads × per-thread rows (grid at 32
	// threads: 308 rows), because measurement resumes threads in id order
	// at every barrier. Traces measured before that order was fixed,
	// which stores may still hold, rotated the thread order by one each
	// barrier, so their periods were up to n times longer (grid at 32
	// threads mined a 4928-row body). The cap keeps those decodable with
	// headroom while still bounding a hostile stream's allocation.
	MaxPatternRows = 1 << 14
	// MaxPatternTableRows bounds the cumulative rows across all pattern
	// bodies. Rows are parsed incrementally from actual input bytes (≥ 6
	// bytes each on the wire), so reaching the cap requires a
	// proportionally large input; the cap bounds the decoded table at a
	// few tens of MiB regardless of what the header claims.
	MaxPatternTableRows = 1 << 20
)

// row is one pre-parsed delta row: the compiled form a pattern body is
// decoded into once and replayed from per iteration.
type row struct {
	kind                          Kind
	dTime, dThread, dA0, dA1, dA2 int64
}

// deltaState is the shared encoder/decoder state machine of the delta
// transform (rowOf encodes, PatternSource.Decode decodes). Arg deltas
// are tracked per kind so structurally identical loop iterations
// produce identical rows.
type deltaState struct {
	prevTime   int64
	prevThread int64
	args       [kindCount][3]int64
}

// rowOf computes the delta row for e and advances the state.
func (s *deltaState) rowOf(e *Event) row {
	a := &s.args[e.Kind]
	r := row{
		kind:    e.Kind,
		dTime:   int64(e.Time) - s.prevTime,
		dThread: int64(e.Thread) - s.prevThread,
		dA0:     e.Arg0 - a[0],
		dA1:     e.Arg1 - a[1],
		dA2:     e.Arg2 - a[2],
	}
	s.prevTime = int64(e.Time)
	s.prevThread = int64(e.Thread)
	a[0], a[1], a[2] = e.Arg0, e.Arg1, e.Arg2
	return r
}

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Compression telemetry, accumulated across every XTRP2 encode and
// replay in the process (flushed once per cursor at stream end).
var (
	compEncodedTraces  atomic.Uint64
	compPatternEntries atomic.Uint64
	compReplayEvents   atomic.Uint64
	compLiteralEvents  atomic.Uint64
)

// CompressionCounters is a snapshot of process-wide XTRP2 codec
// telemetry: how much encoding has happened, how large the mined
// pattern tables were, and how decode work split between compiled
// pattern replay and literal row parsing.
type CompressionCounters struct {
	// EncodedTraces counts completed XTRP2 encodes.
	EncodedTraces uint64
	// PatternEntries counts pattern-table entries written by encoders.
	PatternEntries uint64
	// ReplayEvents counts events produced by compiled pattern replay.
	ReplayEvents uint64
	// LiteralEvents counts events decoded from literal runs.
	LiteralEvents uint64
}

// ReadCompressionCounters returns the current codec telemetry.
func ReadCompressionCounters() CompressionCounters {
	return CompressionCounters{
		EncodedTraces:  compEncodedTraces.Load(),
		PatternEntries: compPatternEntries.Load(),
		ReplayEvents:   compReplayEvents.Load(),
		LiteralEvents:  compLiteralEvents.Load(),
	}
}

// Format identifies a binary trace encoding. XTRP2 is the only one.
type Format uint8

// FormatXTRP2 is the loop-compacted delta format.
const FormatXTRP2 Format = 2

// String returns the canonical lower-case format name.
func (f Format) String() string {
	if f == FormatXTRP2 {
		return "xtrp2"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// WriteBinaryFormat encodes the trace to w in the requested format.
func WriteBinaryFormat(w io.Writer, t *Trace, f Format) error {
	if f == FormatXTRP2 {
		return WriteBinary2(w, t)
	}
	return fmt.Errorf("trace: unknown format %d", uint8(f))
}

// Pattern mining parameters. minerWindow is the rolling-hash n-gram
// length; minRepeatSavings is the least number of rows a repeat op must
// eliminate to be worth a program op and (possibly) a table entry.
const (
	minerWindow      = 8
	minRepeatSavings = 8
)

// minerLadder is the descending savings bar of the multi-scale mining
// passes (see minePatterns): pass k commits only runs eliminating at
// least minerLadder[k] rows, and later passes re-mine the literal gaps.
// The top rung is sized for whole-program loops, whatever their body
// length: grid's 324 sweeps at 32 threads save about 100k rows, and the
// long rotated-order bodies of older traces (see MaxPatternRows) still
// clear it. Changing a rung changes the encoding, so the ladder stays.
var minerLadder = [...]int{1 << 14, 1 << 11, 1 << 8, 1 << 5, minRepeatSavings}

// patternCaps bounds the pattern table a miner may build. Encoders mine
// up to the format's own caps (formatCaps); tests lower them to reach the
// table-full path on small traces.
type patternCaps struct{ patterns, tableRows int }

var formatCaps = patternCaps{patterns: MaxPatterns, tableRows: MaxPatternTableRows}

// program ops produced by the miner: either a literal half-open row
// range [start, end) or count replays of pattern id.
type progOp struct {
	literal    bool
	start, end int    // literal: row range
	id         uint32 // repeat: pattern-table index
	count      uint64 // repeat: total replays (≥ 2)
}

// minePatterns scans the delta rows for periodic runs and returns the
// pattern table plus the op program that reproduces rows exactly.
//
// Detection is a rolling hash over minerWindow-row n-grams: a window
// hash seen p positions ago suggests period p; the candidate block is
// then verified (and its repeat run counted) by exact comparison, so
// hash collisions cost a failed verify, never a wrong encoding.
//
// Mining is multi-scale. A single greedy pass commits the first (and so
// shortest-period) run it can verify, and once rows are consumed no
// overlapping candidate is ever accepted — so a loop whose body contains
// a small internal repetition (eight threads entering the same barrier,
// say) would be shredded into per-iteration fragments and the loop
// itself, the run worth hundreds of times more, would never be found.
// The ladder fixes that scale by scale: the first pass skips (without
// consuming) any run saving fewer than minerLadder[0] rows, so only
// whole-loop periods can claim rows; each later pass re-mines the
// leftover literal gaps with a lower bar, down to the cheap
// minRepeatSavings floor that recovers exactly the small runs a single
// pass used to find. A run can still shadow a larger one within a rung's
// ~8× band, but never across bands. Long runs also matter beyond size:
// they are what the simulator's steady-state fast-forward can skip.
//
// Cost: rows are hashed and interned into dense ids once, so every
// verification is an exact integer compare, and window hashes are
// computed once for all rungs. Within a scan, the maximal run where
// ids[k] == ids[k+p] is memoized per candidate period p, so a periodic
// run that a rung rejects (it saves too few rows) is verified once per
// candidate period rather than again at every window position inside
// it, and each rung costs about one pass over its literal gaps.
func minePatterns(rows []row, caps patternCaps) ([][]row, []progOp) {
	m := newMiner(rows, caps)
	ops := []progOp{{literal: true, start: 0, end: len(rows)}}
	var next []progOp
	for _, minSavings := range minerLadder {
		next = next[:0]
		for _, op := range ops {
			if !op.literal || op.end-op.start <= minSavings {
				next = append(next, op)
				continue
			}
			next = m.scan(next, op.start, op.end, minSavings)
		}
		ops, next = next, ops
	}
	// Drop the empty sentinel a zero-row trace leaves behind.
	out := ops[:0]
	for _, op := range ops {
		if op.literal && op.start == op.end {
			continue
		}
		out = append(out, op)
	}
	return m.patterns, out
}

// Rolling window hash: win(e) = Σ hashRow(rows[k]) · whBase^(e-1-k) over
// the window k ∈ [e-minerWindow, e), mod 2^64.
const whBase = 0x100000001b3

// miner carries the row ids, the window hashes and the pattern table
// shared by every rung, plus per-scan buffers reused across scans.
type miner struct {
	rows []row
	caps patternCaps
	// ids[i] is the dense id of rows[i]: ids are equal exactly when rows
	// are, so verification never compares rows.
	ids []uint32
	// win[e] is the hash of the window rows[e-minerWindow:e], for
	// e ≥ minerWindow.
	win []uint64

	patterns [][]row
	// patStart[id] is where patterns[id] starts in rows.
	patStart  []int
	tableRows int
	// byHash dedups pattern bodies by a hash of their ids (values are
	// candidate ids to compare against, so collisions stay correct).
	byHash map[uint64][]uint32

	// seen is the scan's open-addressed window table (seenN keys),
	// reset per scan and grown past half load; spare is the other buffer
	// of that growth, kept for reuse.
	seen, spare []occ
	seenN       int
	// runs[p] memoizes the last verified run of period p; only entries
	// stamped with the current scan's stamp are valid. It grows past
	// minTableSlots entries only for longer periods.
	runs  []periodRun
	stamp uint32
}

// occ records a window hash's first and most recent occurrence (as the
// index just past the window); last == 0 marks an empty slot.
type occ struct {
	key         uint64
	first, last int
}

// periodRun is a maximal half-open range [rs, re) of positions k with
// ids[k] == ids[k+p], capped above at the scan's hi-p. Its start is
// maximal or at the literal start in force when it was verified; callers
// clip it to the current one.
type periodRun struct {
	rs, re int
	stamp  uint32
}

// The miner's tables start at minTableSlots entries and double as
// needed, so their size follows the distinct rows, windows and periods —
// few, in a loop-structured trace — rather than the row count. The
// open-addressed ones (row interning, window occurrences) grow past half
// load.
const minTableSlots = 1 << 10

// slotOf spreads a hash over a power-of-two table (Fibonacci hashing).
func slotOf(h uint64, mask int) int {
	return int((h*0x9e3779b97f4a7c15)>>32) & mask
}

// internSlot maps a row hash to the row that first had it.
type internSlot struct {
	h   uint64
	rep int // index+1 of the row that owns the id; 0 = empty
}

func newMiner(rows []row, caps patternCaps) *miner {
	n := len(rows)
	m := &miner{
		rows:   rows,
		caps:   caps,
		ids:    make([]uint32, n),
		win:    make([]uint64, n+1),
		byHash: make(map[uint64][]uint32),
		runs:   make([]periodRun, minTableSlots),
	}
	// Intern rows (ids in first-appearance order) and roll the window
	// hash, each from a single hashRow per row.
	tab := make([]internSlot, minTableSlots)
	// whPow = whBase^(minerWindow-1), for removing the oldest row.
	whPow := uint64(1)
	for i := 1; i < minerWindow; i++ {
		whPow *= whBase
	}
	var ring [minerWindow]uint64 // the window's row hashes
	var wh uint64
	nid := uint32(0)
	for i := range rows {
		h := hashRow(&rows[i])
		mask := len(tab) - 1
		s := slotOf(h, mask)
		for tab[s].rep != 0 && (tab[s].h != h || rows[tab[s].rep-1] != rows[i]) {
			s = (s + 1) & mask
		}
		if e := &tab[s]; e.rep != 0 {
			m.ids[i] = m.ids[e.rep-1]
		} else {
			*e = internSlot{h: h, rep: i + 1}
			m.ids[i] = nid
			if nid++; 2*int(nid) > len(tab) {
				tab = growIntern(tab)
			}
		}
		if i >= minerWindow {
			wh -= ring[i%minerWindow] * whPow
		}
		wh = wh*whBase + h
		ring[i%minerWindow] = h
		m.win[i+1] = wh
	}
	return m
}

// growIntern rehashes an intern table into twice the slots.
func growIntern(old []internSlot) []internSlot {
	tab := make([]internSlot, 2*len(old))
	mask := len(tab) - 1
	for _, e := range old {
		if e.rep == 0 {
			continue
		}
		s := slotOf(e.h, mask)
		for tab[s].rep != 0 {
			s = (s + 1) & mask
		}
		tab[s] = e
	}
	return tab
}

// growSeen rehashes the window table into twice the slots.
func (m *miner) growSeen() {
	size := 2 * len(m.seen)
	if cap(m.spare) < size {
		m.spare = make([]occ, size)
	}
	tab := m.spare[:size]
	clear(tab)
	mask := size - 1
	for _, e := range m.seen {
		if e.last == 0 {
			continue
		}
		s := slotOf(e.key, mask)
		for tab[s].last != 0 {
			s = (s + 1) & mask
		}
		tab[s] = e
	}
	m.seen, m.spare = tab, m.seen
}

// intern returns the table id of the body rows[start:start+p], adding it
// if new; false means the table is full.
func (m *miner) intern(start, p int) (uint32, bool) {
	body := m.ids[start : start+p]
	h := uint64(p) + 0x9e3779b97f4a7c15
	for _, id := range body {
		h = (h ^ uint64(id)) * 0x100000001b3
	}
	for _, id := range m.byHash[h] {
		s := m.patStart[id]
		if slices.Equal(m.ids[s:s+len(m.patterns[id])], body) {
			return id, true
		}
	}
	if len(m.patterns) >= m.caps.patterns || m.tableRows+p > m.caps.tableRows {
		return 0, false
	}
	id := uint32(len(m.patterns))
	m.patterns = append(m.patterns, m.rows[start:start+p])
	m.patStart = append(m.patStart, start)
	m.tableRows += p
	m.byHash[h] = append(m.byHash[h], id)
	return id, true
}

// periodRun returns the maximal run [rs, re) ∋ k where ids[x] ==
// ids[x+p], searched no lower than lit and no higher than limit, or
// ok=false when ids[k] != ids[k+p] (or k ≥ limit). A verified run is
// memoized for the rest of the scan, and a memoized run of a divisor q
// of p seeds the search: q-periodic [a, b) makes [a, b-(p-q)) p-periodic.
func (m *miner) periodRun(p, k, lit, limit, q int) (rs, re int, ok bool) {
	if p >= len(m.runs) {
		m.runs = append(m.runs, make([]periodRun, max(p+1, 2*len(m.runs))-len(m.runs))...)
	}
	r := &m.runs[p]
	if r.stamp == m.stamp && r.rs <= k && k < r.re {
		return r.rs, r.re, true
	}
	ids := m.ids
	if k >= limit || ids[k] != ids[k+p] {
		return 0, 0, false
	}
	rs, re = k, k+1
	if q > 0 && p%q == 0 {
		if h := &m.runs[q]; h.stamp == m.stamp && h.rs <= k && k < h.re-(p-q) {
			rs, re = h.rs, h.re-(p-q)
		}
	}
	for rs > lit && ids[rs-1] == ids[rs-1+p] {
		rs--
	}
	for re < limit && ids[re] == ids[re+p] {
		re++
	}
	*r = periodRun{rs: rs, re: re, stamp: m.stamp}
	return rs, re, true
}

// scan mines rows[lo:hi) for periodic runs saving at least minSavings
// rows each, appending ops (repeats and literal gaps) covering the range
// exactly.
func (m *miner) scan(ops []progOp, lo, hi, minSavings int) []progOp {
	m.stamp++
	// seen maps a window hash to the indices just past its first and
	// most recent occurrences. The nearest occurrence proposes the
	// shortest candidate period, but inside a loop body that itself
	// contains small repetitions every window also matches at the small
	// distance, and the loop period would never be proposed at all — the
	// first occurrence breaks that masking: the first time a
	// once-per-iteration window reoccurs, its distance to the first
	// occurrence is exactly one whole loop period.
	if cap(m.seen) < minTableSlots {
		m.seen = make([]occ, minTableSlots)
	}
	m.seen, m.seenN = m.seen[:minTableSlots], 0
	clear(m.seen)
	lit := lo // start of the pending literal run

	for end := lo + minerWindow; end <= hi; end++ {
		wh := m.win[end] // window covers rows[end-minerWindow : end]
		seen := m.seen
		mask := len(seen) - 1
		s := slotOf(wh, mask)
		for seen[s].last != 0 && seen[s].key != wh {
			s = (s + 1) & mask
		}
		o := &seen[s]
		if o.last == 0 {
			*o = occ{key: wh, first: end, last: end}
			if m.seenN++; 2*m.seenN > len(seen) {
				m.growSeen()
			}
			continue
		}
		cands := [2]int{o.last, o.first}
		o.last = end
		q := 0 // the period verified just before, a divisor hint
		for c, j := range cands {
			p := end - j
			if (c == 1 && j == cands[0]) || p > MaxPatternRows || j < lit {
				continue
			}
			// Candidate period p. Anchor the body at j = end-p and extend
			// it backward while the periodicity holds, so the first
			// iteration of a loop is captured instead of left literal; the
			// body then repeats while the periodicity continues, up to hi.
			start, runEnd := j, j
			if j > lit {
				if rs, re, ok := m.periodRun(p, j-1, lit, hi-p, q); ok {
					start, runEnd = max(rs, lit), re
				}
			}
			if start == j {
				if _, re, ok := m.periodRun(p, j, lit, hi-p, q); ok {
					runEnd = re
				}
			}
			q = p
			// The run saves (count-1)·p ≤ span rows; most candidates fail
			// that bound, so the division is left to the rest.
			span := runEnd - start
			if span < p || span < minSavings {
				continue
			}
			count := 1 + span/p
			if (count-1)*p < minSavings {
				continue
			}
			id, ok := m.intern(start, p)
			if !ok {
				// Table full: leave the run literal and keep scanning.
				continue
			}
			if lit < start {
				ops = append(ops, progOp{literal: true, start: lit, end: start})
			}
			ops = append(ops, progOp{id: id, count: uint64(count)})
			lit = start + count*p
			// Restart the window past the consumed run; stale table
			// entries are harmless (candidates are verified exactly).
			if lit > end {
				end = lit + minerWindow - 1
			}
			break
		}
	}
	if lit < hi {
		ops = append(ops, progOp{literal: true, start: lit, end: hi})
	}
	return ops
}

// hashRow mixes one row into a single word (FNV-style multiply/xor).
func hashRow(r *row) uint64 {
	h := uint64(r.kind) + 0x9e3779b97f4a7c15
	for _, v := range [...]int64{r.dTime, r.dThread, r.dA0, r.dA1, r.dA2} {
		h ^= uint64(v)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// WriteBinary2 encodes the trace to w in the XTRP2 format: the events
// are rewritten as delta rows, mined for repeated blocks, and emitted
// as a pattern table plus a program of literal runs and repeats.
func WriteBinary2(w io.Writer, t *Trace) error {
	return writeBinary2(w, t, minePatterns, formatCaps)
}

// writeBinary2 is WriteBinary2 with the pattern miner and its table caps
// as parameters, so tests can encode through a reference miner and
// compare bytes.
func writeBinary2(w io.Writer, t *Trace, mine func([]row, patternCaps) ([][]row, []progOp), caps patternCaps) error {
	hdr := t.Header()
	// The header (EncodedSize of no events), then the pattern count.
	head, err := appendHeader(make([]byte, 0, EncodedSize(hdr, 0)+4), hdr, len(t.Events))
	if err != nil {
		return err
	}
	for i, e := range t.Events {
		if !e.Kind.Valid() {
			return fmt.Errorf("trace: event %d has invalid kind %d", i, byte(e.Kind))
		}
		if e.Thread < 0 || int(e.Thread) >= hdr.NumThreads {
			return fmt.Errorf("trace: event %d thread %d out of range [0,%d)", i, e.Thread, hdr.NumThreads)
		}
	}

	// Pass 1: delta transform + mining (the table must precede the
	// program on the wire, so ops are staged in memory).
	rows := make([]row, len(t.Events))
	var st deltaState
	for i := range t.Events {
		rows[i] = st.rowOf(&t.Events[i])
	}
	patterns, ops := mine(rows, caps)

	// Pass 2: write.
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(head, uint32(len(patterns)))); err != nil {
		return err
	}
	var vb [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(vb[:], v)
		_, err := bw.Write(vb[:n])
		return err
	}
	var rb [1 + 5*binary.MaxVarintLen64]byte
	putRow := func(r *row) error {
		b := append(rb[:0], byte(r.kind))
		for _, v := range [...]int64{r.dTime, r.dThread, r.dA0, r.dA1, r.dA2} {
			b = binary.AppendUvarint(b, zigzag(v))
		}
		_, err := bw.Write(b)
		return err
	}
	for _, body := range patterns {
		if err := putUvarint(uint64(len(body))); err != nil {
			return err
		}
		for i := range body {
			if err := putRow(&body[i]); err != nil {
				return err
			}
		}
	}
	for _, op := range ops {
		if op.literal {
			if err := bw.WriteByte(opLiteral); err != nil {
				return err
			}
			if err := putUvarint(uint64(op.end - op.start)); err != nil {
				return err
			}
			for i := op.start; i < op.end; i++ {
				if err := putRow(&rows[i]); err != nil {
					return err
				}
			}
		} else {
			if err := bw.WriteByte(opRepeat); err != nil {
				return err
			}
			if err := putUvarint(uint64(op.id)); err != nil {
				return err
			}
			if err := putUvarint(op.count); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	compEncodedTraces.Add(1)
	compPatternEntries.Add(uint64(len(patterns)))
	return nil
}

// ReadBinary2 decodes a whole XTRP2 trace into memory. It compiles enc
// first, so every cap and every op bound, MaxTraceEvents among them, has
// been checked before any event is expanded. The events are those a
// PatternSource over the compiled trace yields.
func ReadBinary2(enc []byte) (*Trace, error) {
	ct, err := CompileBinary(enc)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	t := &Trace{NumThreads: ct.hdr.NumThreads, EventOverhead: ct.hdr.EventOverhead, Phases: ct.hdr.Phases}
	t.Events = make([]Event, ct.declare)
	ps := ct.Source()
	for i := range t.Events {
		if _, err := ps.NextThread(); err != nil {
			return nil, err
		}
		ps.Decode(&t.Events[i])
	}
	ps.NextThread() // io.EOF: publishes the cursor's replay counters
	return t, nil
}

// Program opcodes.
const (
	opLiteral = 0x00
	opRepeat  = 0x01
)

// wireReader parses XTRP2 items — the header, uvarints, delta rows, the
// pattern table and program op headers — from the front of a whole
// input. It is the one XTRP2 parser.
type wireReader struct {
	b []byte // unread input
	// slab is the unused tail of the row storage that row runs are
	// carved from (see rows).
	slab []row
}

// Wire row bounds: a kind byte and five uvarints of 1 to
// binary.MaxVarintLen64 bytes each.
const (
	minWireRow = 6
	maxWireRow = 1 + 5*binary.MaxVarintLen64
)

// errVarintOverflow matches encoding/binary's error for an over-long
// uvarint.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// take consumes the next n bytes, failing with io.ReadFull's errors:
// io.EOF when the input is exhausted, io.ErrUnexpectedEOF when it holds
// fewer than n bytes.
func (w *wireReader) take(n int) ([]byte, error) {
	if len(w.b) < n {
		if len(w.b) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := w.b[:n]
	w.b = w.b[n:]
	return b, nil
}

// header parses the XTRP2 header, from the magic through the event
// count, under the hardening caps, and returns it with the declared
// event count. A count past MaxTraceEvents is refused here, before
// anything of the body is parsed.
func (w *wireReader) header() (Header, uint64, error) {
	var hdr Header
	m, err := w.take(len(binary2Magic))
	if err != nil {
		return hdr, 0, err
	}
	if [5]byte(m) != binary2Magic {
		return hdr, 0, ErrBadMagic
	}
	fixed, err := w.take(16)
	if err != nil {
		return hdr, 0, err
	}
	nthreads := binary.LittleEndian.Uint32(fixed[:4])
	if nthreads > MaxThreads {
		return hdr, 0, fmt.Errorf("trace: implausible thread count %d (max %d)", nthreads, MaxThreads)
	}
	hdr.NumThreads = int(nthreads)
	hdr.EventOverhead = intToTime(binary.LittleEndian.Uint64(fixed[4:12]))
	nphase := binary.LittleEndian.Uint32(fixed[12:16])
	if nphase > MaxPhases {
		return hdr, 0, fmt.Errorf("trace: implausible phase count %d (max %d)", nphase, MaxPhases)
	}
	phaseBytes := 0
	for i := uint32(0); i < nphase; i++ {
		ln, err := w.take(2)
		if err != nil {
			return hdr, 0, err
		}
		n := int(binary.LittleEndian.Uint16(ln))
		if phaseBytes += n; phaseBytes > MaxPhaseBytes {
			return hdr, 0, fmt.Errorf("trace: phase table exceeds %d bytes", MaxPhaseBytes)
		}
		name, err := w.take(n)
		if err != nil {
			return hdr, 0, err
		}
		// Grown incrementally: each name's bytes were just read, so the
		// table can never outgrow the input actually supplied.
		hdr.Phases = append(hdr.Phases, string(name))
	}
	cnt, err := w.take(8)
	if err != nil {
		return hdr, 0, err
	}
	declare := binary.LittleEndian.Uint64(cnt)
	if declare > uint64(MaxTraceEvents) {
		return hdr, 0, fmt.Errorf("trace: %d events declared, more than the %d a whole-trace read holds", declare, MaxTraceEvents)
	}
	return hdr, declare, nil
}

// uvarint parses one uvarint with binary.ReadUvarint's semantics: a
// value that has not ended after binary.MaxVarintLen64 bytes overflows,
// even at the end of the input.
func (w *wireReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(w.b)
	switch {
	case n > 0:
		w.b = w.b[n:]
		return x, nil
	case n < 0 || len(w.b) >= binary.MaxVarintLen64:
		return 0, errVarintOverflow
	case len(w.b) == 0:
		return 0, io.EOF
	}
	return 0, io.ErrUnexpectedEOF
}

// row parses one wire row (kind byte + five zigzag uvarints), validating
// the kind byte.
func (w *wireReader) row() (row, error) {
	if len(w.b) == 0 {
		return row{}, io.EOF
	}
	kind := w.b[0]
	if !Kind(kind).Valid() {
		return row{}, fmt.Errorf("invalid kind %d", kind)
	}
	w.b = w.b[1:]
	r := row{kind: Kind(kind)}
	for _, p := range [...]*int64{&r.dTime, &r.dThread, &r.dA0, &r.dA1, &r.dA2} {
		u, err := w.uvarint()
		if err != nil {
			return row{}, err
		}
		*p = unzigzag(u)
	}
	return r, nil
}

// rows parses a run of n rows; on error it also reports the index of
// the row that failed. Every run is carved from the slab, which holds at
// least len/minWireRow rows of the whole input (see CompileBinary): every
// row takes at least minWireRow bytes, so the slab holds all the rows the
// input can encode, and a forged count runs out of bytes before it runs
// out of slab. Nothing is allocated ahead of the bytes actually supplied.
//
// Rows parse in batches by parseRows while the input holds a whole row's
// worth of bytes; row parses the rest one at a time and reports every
// error.
func (w *wireReader) rows(n uint64) ([]row, uint64, error) {
	out := w.slab[:0:min(n, uint64(cap(w.slab)))]
	for j := uint64(0); j < n; j++ {
		var k int
		w.b, out, k = parseRows(w.b, out, n-j)
		if j += uint64(k); j == n {
			break
		}
		r, err := w.row()
		if err != nil {
			return nil, j, err
		}
		out = append(out, r)
	}
	w.slab = w.slab[len(out):len(out)]
	return out, n, nil
}

// parseRows appends up to n rows parsed from the front of b to out and
// returns the rest of b, out and the count. It parses a row only while b
// holds maxWireRow bytes, so no varint can run out of input, in one loop
// over its own copy of the input: no per-field call, and no store to
// the heap-held reader per varint. It stops at a row with an invalid
// kind byte or an overflowing varint, leaving it to row, which fails on
// it with row's own error.
func parseRows(b []byte, out []row, n uint64) ([]byte, []row, int) {
	k := 0
	for ; uint64(k) < n && len(b) >= maxWireRow; k++ {
		kind := Kind(b[0])
		if !kind.Valid() {
			break
		}
		var f [5]int64
		i := 1
		for j := range f {
			x := uint64(b[i])
			if x < 0x80 {
				i++
			} else {
				var m int
				if x, m = binary.Uvarint(b[i:]); m <= 0 {
					return b, out, k
				}
				i += m
			}
			f[j] = unzigzag(x)
		}
		out = append(out, row{kind: kind, dTime: f[0], dThread: f[1], dA0: f[2], dA1: f[3], dA2: f[4]})
		b = b[i:]
	}
	return b, out, k
}

// patternTable parses the pattern table that follows the header — the
// entry count, then each body's row count and rows, under the
// MaxPatterns, MaxPatternRows and MaxPatternTableRows caps — appending
// the bodies to patterns.
func (w *wireReader) patternTable(patterns [][]row) ([][]row, error) {
	cnt, err := w.take(4)
	if err != nil {
		return nil, err
	}
	npatterns := binary.LittleEndian.Uint32(cnt)
	if npatterns > MaxPatterns {
		return nil, fmt.Errorf("trace: implausible pattern count %d (max %d)", npatterns, MaxPatterns)
	}
	tableRows := uint64(0)
	for i := uint32(0); i < npatterns; i++ {
		nrows, err := w.uvarint()
		if err != nil {
			return nil, patternErr(i, err)
		}
		if nrows == 0 {
			return nil, fmt.Errorf("trace: pattern %d is empty", i)
		}
		if nrows > MaxPatternRows {
			return nil, fmt.Errorf("trace: pattern %d declares %d rows (max %d)", i, nrows, MaxPatternRows)
		}
		if tableRows += nrows; tableRows > MaxPatternTableRows {
			return nil, fmt.Errorf("trace: pattern table exceeds %d rows", MaxPatternTableRows)
		}
		body, _, err := w.rows(nrows)
		if err != nil {
			return nil, patternErr(i, err)
		}
		patterns = append(patterns, body)
	}
	return patterns, nil
}

func patternErr(i uint32, err error) error {
	return fmt.Errorf("trace: pattern %d: %w", i, eofErr(err))
}

// op parses the next program op header, validated against the declared
// event count given produced events so far: a literal run of count rows
// (which follow on the wire), or count replays of pattern id.
func (w *wireReader) op(produced, declare uint64, patterns [][]row) (literal bool, id uint32, count uint64, err error) {
	if len(w.b) == 0 {
		return false, 0, 0, fmt.Errorf("trace: event %d: %w", produced, io.ErrUnexpectedEOF)
	}
	opc := w.b[0]
	w.b = w.b[1:]
	switch opc {
	case opLiteral:
		n, err := w.uvarint()
		if err != nil {
			return false, 0, 0, fmt.Errorf("trace: event %d: literal run: %w", produced, eofErr(err))
		}
		if n == 0 {
			return false, 0, 0, fmt.Errorf("trace: event %d: empty literal run", produced)
		}
		if n > declare-produced {
			return false, 0, 0, fmt.Errorf("trace: event %d: literal run of %d exceeds declared %d events", produced, n, declare)
		}
		return true, 0, n, nil
	case opRepeat:
		pid, err := w.uvarint()
		if err != nil {
			return false, 0, 0, fmt.Errorf("trace: event %d: repeat op: %w", produced, eofErr(err))
		}
		if pid >= uint64(len(patterns)) {
			return false, 0, 0, fmt.Errorf("trace: event %d: repeat references pattern %d of %d", produced, pid, len(patterns))
		}
		count, err := w.uvarint()
		if err != nil {
			return false, 0, 0, fmt.Errorf("trace: event %d: repeat op: %w", produced, eofErr(err))
		}
		body := patterns[pid]
		if count == 0 {
			return false, 0, 0, fmt.Errorf("trace: event %d: repeat count 0", produced)
		}
		if count > declare-produced || count*uint64(len(body)) > declare-produced {
			return false, 0, 0, fmt.Errorf("trace: event %d: repeat of %d×%d rows exceeds declared %d events", produced, count, len(body), declare)
		}
		return false, uint32(pid), count, nil
	}
	return false, 0, 0, fmt.Errorf("trace: event %d: unknown opcode %#x", produced, opc)
}

func eofErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
