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
	pred := new(Prediction)
	if err := extrapolateReader(ctx, hdr, src, cfg, pred); err != nil {
		return nil, err
	}
	return pred, nil
}

// extrapolateReader is ExtrapolateReader writing the prediction to pred.
func extrapolateReader(ctx context.Context, hdr trace.Header, src trace.Reader, cfg sim.Config, pred *Prediction) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: extrapolation not started: %w", err)
	}
	s, err := translate.NewStream(hdr, src, translate.StreamOptions{})
	if err != nil {
		return err
	}
	defer s.Release()
	res, err := sim.SimulateStream(ctx, s, cfg)
	if err != nil {
		return err
	}
	// The simulation drains every cursor, but a defensive Drain completes
	// validation (and the duration totals) even if a future engine stops
	// consuming early.
	if err := s.Drain(); err != nil {
		return err
	}
	*pred = Prediction{Measured1P: s.SourceDuration(), Ideal: s.Duration(), Result: res}
	return nil
}

// ExtrapolateEncoded is ExtrapolateEncodedAll's one-config case: the
// extrapolation of an XTRP2-encoded measurement under cfg, streamed over
// a compiled-trace cursor so the simulator can fast-forward steady loop
// iterations. Bytes in any other format fail with trace.ErrBadMagic.
// The event-replay oracle is ExtrapolateReader over the same cursor
// behind a plain trace.Reader, which hides it from translation: same
// predictions, no fast-forward.
func ExtrapolateEncoded(ctx context.Context, enc []byte, cfg sim.Config) (*Prediction, error) {
	pred := make([]Prediction, 1)
	if err := extrapolateEncoded(ctx, enc, []sim.Config{cfg}, pred); err != nil {
		return nil, err
	}
	return &pred[0], nil
}

// maxSharedEvents caps the events (and threads) of a translation held
// whole for several configs: 2.5 MiB of events. A trace declaring more
// streams once per config instead.
const maxSharedEvents = 1 << 16

// sharesTranslation reports whether a call extrapolating ct under
// configs configs translates it once for all of them.
func sharesTranslation(ct *trace.CompiledTrace, configs int) bool {
	return configs >= 2 && ct.Declared() <= maxSharedEvents && ct.Header().NumThreads <= maxSharedEvents && sim.NeverFastForwards(ct)
}

// ExtrapolateEncodedAll extrapolates one XTRP2-encoded measurement under
// every config in cfgs, returning one prediction per config, and
// compiles the bytes once (trace.CompileBinary); the compiled trace's
// storage goes back to a pool when the call ends. The translation does
// not depend on the machine, so with two or more configs, when
// sim.NeverFastForwards proves no run over the program can attempt a
// fast-forward and the trace fits maxSharedEvents, it is translated once
// (translate.TranslateWhole) and sim.Simulate replays it per config.
// Otherwise each config streams over its own cursor on the compiled
// trace, as ExtrapolateReader does, and can skip steady loop iterations.
// Both branches give the same predictions, make the same fast-forward
// decisions and fail with the same error: the first failing config's.
func ExtrapolateEncodedAll(ctx context.Context, enc []byte, cfgs []sim.Config) ([]Prediction, error) {
	preds := make([]Prediction, len(cfgs))
	if err := extrapolateEncoded(ctx, enc, cfgs, preds); err != nil {
		return nil, err
	}
	return preds, nil
}

// extrapolateEncoded is ExtrapolateEncodedAll writing the predictions
// into preds, one per config.
func extrapolateEncoded(ctx context.Context, enc []byte, cfgs []sim.Config, preds []Prediction) error {
	ct, err := trace.CompileBinary(enc)
	if err != nil {
		return err
	}
	defer ct.Release()
	if !sharesTranslation(ct, len(cfgs)) {
		for i, cfg := range cfgs {
			ps := ct.Source()
			if err := extrapolateReader(ctx, ps.Header(), ps, cfg, &preds[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: extrapolation not started: %w", err)
	}
	w, terr := translate.TranslateWhole(ct)
	if terr != nil {
		// Report the fault a stream meets first, as the stream reports
		// it: it checks the first config before it pulls an event, and
		// the counting pass may meet a later fault than the stream.
		ps := ct.Source()
		if err := extrapolateReader(ctx, ps.Header(), ps, cfgs[0], &preds[0]); err != nil {
			return err
		}
		return terr
	}
	defer w.Release()
	for i, cfg := range cfgs {
		res, err := sim.Simulate(ctx, &w.ParallelTrace, cfg)
		if err != nil {
			return err
		}
		preds[i] = Prediction{Measured1P: w.SourceDuration(), Ideal: w.Duration(), Result: res}
	}
	return nil
}
