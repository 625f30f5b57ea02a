package sim

import (
	"context"

	"extrap/internal/translate"
)

// SimulateStreamAttempts is SimulateStream on a fresh arena that also
// reports how many fast-forward attempts that run alone made, which the
// process-wide counters cannot tell apart from parallel tests' runs.
func SimulateStreamAttempts(ctx context.Context, src *translate.Stream, cfg Config) (*Result, int, error) {
	a := newArena()
	res, err := a.simulate(ctx, cfg, nil, src)
	return res, a.ff.attempts, err
}
