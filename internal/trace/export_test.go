package trace

import "io"

// MinerLadder exposes the miner's savings bars to the external tests.
var MinerLadder = minerLadder

// EncodeWithMiner encodes t exactly as WriteBinary2 does, mining with the
// production miner or (oracle) the reference miner in
// miner_oracle_test.go, under the given pattern-table caps.
func EncodeWithMiner(w io.Writer, t *Trace, oracle bool, maxPatterns, maxTableRows int) error {
	mine := minePatterns
	if oracle {
		mine = oracleMinePatterns
	}
	return writeBinary2(w, t, mine, patternCaps{patterns: maxPatterns, tableRows: maxTableRows})
}

// Synthetic trace builders shared with the external tests.
var (
	MakeLoopTrace    = makeLoopTrace
	MakeRandomTrace  = makeRandomTrace
	MakeRotatedTrace = makeRotatedTrace
)

// DeltaRows is a trace's delta rows: the pattern miner's input.
type DeltaRows []row

// NewDeltaRows computes t's delta rows as WriteBinary2 does.
func NewDeltaRows(t *Trace) DeltaRows {
	rows := make(DeltaRows, len(t.Events))
	var st deltaState
	for i := range t.Events {
		rows[i] = st.rowOf(&t.Events[i])
	}
	return rows
}

// Mine runs the production miner or (oracle) the reference miner under
// the format's caps and returns the pattern count and op count.
func (r DeltaRows) Mine(oracle bool) (patterns, ops int) {
	mine := minePatterns
	if oracle {
		mine = oracleMinePatterns
	}
	p, o := mine(r, formatCaps)
	return len(p), len(o)
}

// XTRP2HostileCases is the hostile XTRP2 corpus TestXTRP2HostileInputs
// reads, for the external tests that feed it to the pipeline.
var XTRP2HostileCases = xtrp2HostileCases

// HostileXTRP2 builds an XTRP2 stream with every count under the
// caller's control, as the hostile corpus does.
var HostileXTRP2 = hostile2

// Wire-level pieces of the hostile corpus.
var (
	Uvarint = uvarint
	WireRow = wireRow
	Concat  = concat
)

// Program opcodes.
const (
	OpLiteral = opLiteral
	OpRepeat  = opRepeat
)
