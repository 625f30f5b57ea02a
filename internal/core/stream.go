package core

import (
	"bytes"
	"context"
	"fmt"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Prediction is the streaming counterpart of Outcome: the scalar
// artifacts of an extrapolation whose traces flowed through bounded
// cursors and were never materialized. The predicted metrics are
// byte-identical to what the in-memory pipeline computes from the same
// measurement.
type Prediction struct {
	// Measured1P is the 1-processor virtual execution time of the source
	// measurement (the timestamp of its last event).
	Measured1P vtime.Time
	// Ideal is the idealized translated parallel time (free communication
	// and synchronization).
	Ideal vtime.Time
	// Result is the predicted performance in the target environment.
	Result *sim.Result
}

// ExtrapolateReader runs the streaming pipeline — translate the merged
// measurement arriving from src, simulate the target environment over
// per-thread cursors — with peak memory bounded by the translation
// buffer, not the trace length. hdr carries the measurement's metadata
// (as produced by trace.Decoder or Trace.Header).
func ExtrapolateReader(ctx context.Context, hdr trace.Header, src trace.Reader, cfg sim.Config) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: extrapolation not started: %w", err)
	}
	s, err := translate.NewStream(hdr, src, translate.StreamOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Release()
	res, err := sim.SimulateStream(ctx, s, cfg)
	if err != nil {
		return nil, err
	}
	// The simulation drains every cursor, but a defensive Drain completes
	// validation (and the duration totals) even if a future engine stops
	// consuming early.
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return &Prediction{
		Measured1P: s.SourceDuration(),
		Ideal:      s.Duration(),
		Result:     res,
	}, nil
}

// ExtrapolateEncoded is ExtrapolateReader over a binary-encoded
// measurement in either XTRP format (detected by magic): the trace is
// decoded incrementally as the pipeline pulls events, so even the
// decode step stays at chunk-sized memory. For XTRP2 bytes the compiled
// pattern table and repeat program become a live cursor the whole
// pipeline can see, letting the simulator fast-forward steady loop
// iterations, and the compiled trace's storage goes back to a pool when
// the run ends; XTRP1 bytes (pre-migration stores) go through the plain
// record decoder. ExtrapolateReader over trace.NewAnyDecoder is the
// event-replay reference: same predictions, no fast-forward.
func ExtrapolateEncoded(ctx context.Context, enc []byte, cfg sim.Config) (*Prediction, error) {
	if trace.IsXTRP2(enc) {
		ct, err := trace.CompileBinary(enc)
		if err != nil {
			return nil, err
		}
		defer ct.Release()
		ps := ct.Source()
		return ExtrapolateReader(ctx, ps.Header(), ps, cfg)
	}
	d, err := trace.NewAnyDecoder(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	return ExtrapolateReader(ctx, d.Header(), d, cfg)
}
