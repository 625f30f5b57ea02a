package core

import (
	"bytes"
	"context"
	"fmt"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// ExtrapolateBatch answers K what-if questions against one measurement:
// the trace is translated once and the K machine models are simulated
// one after another over the shared read-only parallel trace, reusing
// pooled engine state between lanes. Lanes never fast-forward (the
// materialized trace carries no pattern cursor). Each prediction is
// byte-identical to what Extrapolate/ExtrapolateEncoded produces for
// the same (trace, config) pair — batching is purely an amortization of
// the decode and translation passes.
func ExtrapolateBatch(ctx context.Context, tr *trace.Trace, cfgs []sim.Config) ([]*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: extrapolation not started: %w", err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		return nil, err
	}
	measured, ideal := tr.Duration(), pt.Duration()
	out := make([]*Prediction, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Simulate(ctx, nil, pt, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: batch lane %d: %w", i, err)
		}
		out[i] = &Prediction{Measured1P: measured, Ideal: ideal, Result: res}
	}
	return out, nil
}

// ExtrapolateEncodedBatch is ExtrapolateBatch over a binary-encoded
// measurement (either XTRP format, detected by magic): one decode, one
// translation, K simulations. This is the sweep fast path — the
// per-cell streaming pipeline decodes and translates the same bytes
// once per config. For XTRP2 bytes the pattern table is decoded once
// here and every lane shares the materialized result.
func ExtrapolateEncodedBatch(ctx context.Context, enc []byte, cfgs []sim.Config) ([]*Prediction, error) {
	tr, err := trace.ReadBinaryAny(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	return ExtrapolateBatch(ctx, tr, cfgs)
}
