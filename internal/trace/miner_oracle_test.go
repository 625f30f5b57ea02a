package trace

// The pattern miner as it stood before exact row ids and memoized period
// runs, kept as the reference the production miner must match byte for
// byte. It re-verifies every candidate period by direct row comparison at
// every window position, so it is quadratic in the length of a periodic
// run a ladder rung rejects; only tests and benchmarks call it. The one
// change is that the table caps arrive as a parameter instead of being
// read from MaxPatterns and MaxPatternTableRows.

func oracleMinePatterns(rows []row, caps patternCaps) ([][]row, []progOp) {
	m := oracleMiner{caps: caps, byHash: make(map[uint64][]uint32)}
	ops := []progOp{{literal: true, start: 0, end: len(rows)}}
	for _, minSavings := range minerLadder {
		var next []progOp
		for _, op := range ops {
			if !op.literal || op.end-op.start <= minSavings {
				next = append(next, op)
				continue
			}
			next = append(next, m.scan(rows, op.start, op.end, minSavings)...)
		}
		ops = next
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

// oracleMiner carries the pattern table shared by both mining passes.
type oracleMiner struct {
	caps      patternCaps
	patterns  [][]row
	tableRows int
	// byHash dedups pattern bodies (values are candidate ids to
	// compare against, so collisions stay correct).
	byHash map[uint64][]uint32
}

func (m *oracleMiner) intern(body []row) (uint32, bool) {
	h := hashRows(body)
	for _, id := range m.byHash[h] {
		if rowsEqual(m.patterns[id], body) {
			return id, true
		}
	}
	if len(m.patterns) >= m.caps.patterns || m.tableRows+len(body) > m.caps.tableRows {
		return 0, false
	}
	id := uint32(len(m.patterns))
	m.patterns = append(m.patterns, body)
	m.tableRows += len(body)
	m.byHash[h] = append(m.byHash[h], id)
	return id, true
}

// scan mines rows[lo:hi) for periodic runs saving at least minSavings
// rows each, returning ops (repeats and literal gaps) covering the range
// exactly.
func (m *oracleMiner) scan(rows []row, lo, hi, minSavings int) []progOp {
	var ops []progOp
	flushLiteral := func(start, end int) {
		if start < end {
			ops = append(ops, progOp{literal: true, start: start, end: end})
		}
	}

	// seen maps a window hash to the indices just past its first and
	// most recent occurrences. The nearest occurrence proposes the
	// shortest candidate period, but inside a loop body that itself
	// contains small repetitions every window also matches at the small
	// distance, and the loop period would never be proposed at all — the
	// first occurrence breaks that masking: the first time a
	// once-per-iteration window reoccurs, its distance to the first
	// occurrence is exactly one whole loop period.
	type occ struct{ first, last int }
	seen := make(map[uint64]occ, (hi-lo)/4+1)
	lit := lo // start of the pending literal run
	var wh uint64
	wlen := 0 // rows currently in the rolling window
	const whBase = 0x100000001b3
	// whPow = whBase^(minerWindow-1), for removing the oldest row.
	whPow := uint64(1)
	for i := 1; i < minerWindow; i++ {
		whPow *= whBase
	}

	for i := lo; i < hi; i++ {
		rh := hashRow(&rows[i])
		if wlen == minerWindow {
			wh -= hashRow(&rows[i-minerWindow]) * whPow
		} else {
			wlen++
		}
		wh = wh*whBase + rh
		if wlen < minerWindow {
			continue
		}
		end := i + 1 // window covers rows[end-minerWindow : end]
		o, ok := seen[wh]
		if !ok {
			seen[wh] = occ{first: end, last: end}
			continue
		}
		seen[wh] = occ{first: o.first, last: end}
		for _, j := range [2]int{o.last, o.first} {
			if j >= end {
				continue
			}
			p := end - j
			if p > MaxPatternRows || end-p < lit {
				continue
			}
			// Candidate period p. Anchor the body at end-p and extend it
			// backward while the periodicity holds, so the first iteration
			// of a loop is captured instead of left literal.
			start := end - p
			for start > lit && rows[start-1] == rows[start-1+p] {
				start--
			}
			body := rows[start : start+p]
			count := uint64(1)
			for next := start + int(count)*p; next+p <= hi && rowsEqual(rows[next:next+p], body); next += p {
				count++
			}
			if count < 2 || int(count-1)*p < minSavings {
				continue
			}
			id, ok := m.intern(body)
			if !ok {
				// Table full: leave the run literal and keep scanning.
				continue
			}
			flushLiteral(lit, start)
			ops = append(ops, progOp{id: id, count: count})
			consumed := start + int(count)*p
			lit = consumed
			// Restart the window past the consumed run; stale map entries
			// are harmless (candidates are verified by comparison).
			if consumed > i+1 {
				i = consumed - 1
				wh, wlen = 0, 0
			}
			break
		}
	}
	flushLiteral(lit, hi)
	return ops
}

func hashRows(rows []row) uint64 {
	h := uint64(len(rows)) + 0x9e3779b97f4a7c15
	for i := range rows {
		h = h*0x100000001b3 + hashRow(&rows[i])
	}
	return h
}

func rowsEqual(a, b []row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
