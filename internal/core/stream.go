package core

import (
	"context"
	"fmt"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Prediction is what one extrapolation yields: the scalar artifacts of
// a measurement whose translation flowed through bounded cursors and
// was never materialized, and the simulation result. The predicted
// metrics are byte-identical to what translating the whole trace
// (translate.Translate) and simulating it (sim.Simulate) compute from
// the same measurement.
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

// ExtrapolateReader is the extrapolation pipeline: translate the merged
// measurement arriving from src and simulate the target environment
// over per-thread cursors, with peak memory bounded by the translation
// buffer, not the trace length. hdr carries the measurement's metadata
// (as Trace.Header or PatternSource.Header report it); a trace held in
// memory is extrapolated with ExtrapolateReader(ctx, tr.Header(),
// tr.Reader(), cfg). The simulator fast-forwards only when src is a
// *trace.PatternSource itself. The context is checked up front and
// polled inside the simulation event loop, so a cancelled request
// abandons the pipeline promptly with an error satisfying errors.Is
// against ctx.Err().
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

// ExtrapolateEncoded is ExtrapolateReader over an XTRP2-encoded
// measurement: the bytes are compiled (trace.CompileBinary) and the
// compiled pattern table and repeat program become a live cursor the
// whole pipeline can see, letting the simulator fast-forward steady loop
// iterations. The compiled trace's storage goes back to a pool when the
// run ends. Bytes in any other format fail with trace.ErrBadMagic. The
// event-replay oracle is ExtrapolateReader over the same cursor behind a
// plain trace.Reader, which hides it from translation: same
// predictions, no fast-forward.
func ExtrapolateEncoded(ctx context.Context, enc []byte, cfg sim.Config) (*Prediction, error) {
	ct, err := trace.CompileBinary(enc)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	ps := ct.Source()
	return ExtrapolateReader(ctx, ps.Header(), ps, cfg)
}
