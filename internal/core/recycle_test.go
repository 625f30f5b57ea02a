package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// pollCtx reports cancellation from its polls-th Err call on: a
// deterministic stand-in for a client that hangs up mid-simulation.
type pollCtx struct {
	context.Context
	polls atomic.Int64
}

func newPollCtx(polls int64) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.polls.Store(polls)
	return c
}

func (c *pollCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// recycleCell is one prediction of the mix and its solo answer,
// computed on fresh state by the in-memory pipeline. A plain cell reads
// its compiled trace through a plain trace.Reader instead of calling
// ExtrapolateEncoded, so translation sees no pattern cursor and replays
// every event.
type recycleCell struct {
	name  string
	enc   []byte
	cfg   sim.Config
	plain bool
	want  *core.Prediction
}

// run predicts the cell under ctx.
func (c *recycleCell) run(ctx context.Context) (*core.Prediction, error) {
	if !c.plain {
		return core.ExtrapolateEncoded(ctx, c.enc, c.cfg)
	}
	ct, err := trace.CompileBinary(c.enc)
	if err != nil {
		return nil, err
	}
	defer ct.Release()
	ps := ct.Source()
	return core.ExtrapolateReader(ctx, ps.Header(), struct{ trace.Reader }{ps}, c.cfg)
}

// measureEncoded measures a registry kernel and encodes it as XTRP2.
func measureEncoded(t *testing.T, name string, size benchmarks.Size, threads int) (*trace.Trace, []byte) {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Measure(b.Factory(size)(threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// soloPrediction answers tr under cfg by the in-memory pipeline: a
// materialized translation simulated on its own, before any concurrent
// run (package sim's arena tests pin pooled engine state to a fresh
// engine's answers).
func soloPrediction(t *testing.T, tr *trace.Trace, cfg sim.Config) *core.Prediction {
	t.Helper()
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Prediction{Measured1P: tr.Duration(), Ideal: pt.Duration(), Result: res}
}

// recycleMix builds the mixed workload: different thread counts,
// processors below threads, linear and tree barriers, fast-forwarding
// and event-replay (plain reader, emitted trace) runs.
func recycleMix(t *testing.T) []recycleCell {
	t.Helper()
	cm5 := machine.CM5().Config
	dm := machine.GenericDM().Config
	halfProcs := func(cfg sim.Config, procs int) sim.Config { cfg.Procs = procs; return cfg }
	emit := func(cfg sim.Config) sim.Config { cfg.EmitTrace = true; return cfg }
	grid16, grid16enc := measureEncoded(t, "grid", benchmarks.Size{N: 16, Iters: 60}, 16)
	grid4, grid4enc := measureEncoded(t, "grid", benchmarks.Size{N: 16, Iters: 30}, 4)
	embar, embarEnc := measureEncoded(t, "embar", benchmarks.Size{N: 10}, 8)
	sorted, sortEnc := measureEncoded(t, "sort", benchmarks.Size{N: 256}, 8)
	cells := []recycleCell{
		{name: "grid16/cm5", enc: grid16enc, cfg: cm5},
		{name: "grid16/tree", enc: grid16enc, cfg: treeConfig()},
		{name: "grid16/dm-p4", enc: grid16enc, cfg: halfProcs(dm, 4)},
		{name: "grid16/cm5-emit", enc: grid16enc, cfg: emit(cm5)},
		{name: "grid4/tree-p2", enc: grid4enc, cfg: halfProcs(treeConfig(), 2)},
		{name: "grid4/plain", enc: grid4enc, cfg: cm5, plain: true},
		{name: "embar/dm-p2", enc: embarEnc, cfg: halfProcs(dm, 2)},
		{name: "sort/tree-emit", enc: sortEnc, cfg: emit(treeConfig())},
	}
	sources := map[string]*trace.Trace{"grid16": grid16, "grid4": grid4, "embar": embar, "sort": sorted}
	for i := range cells {
		c := &cells[i]
		c.want = soloPrediction(t, sources[strings.SplitN(c.name, "/", 2)[0]], c.cfg)
	}
	return cells
}

// invalidEncoded is an XTRP2 stream that decodes but fails translation
// mid-stream: thread 1 exits a barrier it never entered.
func invalidEncoded(t *testing.T) []byte {
	t.Helper()
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 0, Kind: trace.KindThreadStart, Thread: 0, Arg0: 2})
	tr.Append(trace.Event{Time: 0, Kind: trace.KindThreadStart, Thread: 1, Arg0: 2})
	tr.Append(trace.Event{Time: 5 * vtime.Microsecond, Kind: trace.KindBarrierEntry, Thread: 0})
	tr.Append(trace.Event{Time: 6 * vtime.Microsecond, Kind: trace.KindBarrierExit, Thread: 1})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// counterDelta is the fast-forward activity between two snapshots.
func counterDelta(a, b sim.ReplayCounters) sim.ReplayCounters {
	return sim.ReplayCounters{
		Attempts:          b.Attempts - a.Attempts,
		FastForwards:      b.FastForwards - a.FastForwards,
		IterationsSkipped: b.IterationsSkipped - a.IterationsSkipped,
		Fallbacks:         b.Fallbacks - a.Fallbacks,
	}
}

// checkCell runs c and compares it with its solo answer.
func checkCell(ctx context.Context, c *recycleCell) error {
	got, err := c.run(ctx)
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	if !reflect.DeepEqual(got, c.want) {
		return fmt.Errorf("%s: recycled-state answer %+v differs from solo %+v", c.name, got.Result, c.want.Result)
	}
	return nil
}

// cancelMidRun runs a long event-replay cell whose context cancels at
// its third poll: after the pre-start checks, inside the event loop.
func cancelMidRun(c *recycleCell) error {
	_, err := c.run(newPollCtx(2))
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "aborted after") {
		return fmt.Errorf("cancelled run: err = %v, want a mid-simulation cancellation", err)
	}
	return nil
}

// TestRecycledStateConcurrent: engine, stream and fingerprint state is
// recycled across calls, so concurrent ExtrapolateEncoded calls over a
// mixed workload — interleaved with a cancelled run and a trace that
// fails validation — must each return exactly their solo answer, and a
// cell run right after a cancelled or failed one must be unaffected.
// CI runs it under -race -count=10.
func TestRecycledStateConcurrent(t *testing.T) {
	cells := recycleMix(t)
	invalid := invalidEncoded(t)
	long := &cells[3] // grid16 with an emitted trace: no fast-forward, >8192 events
	if n := len(long.want.Result.Trace.Events); n < 2*8192 {
		t.Fatalf("cancel cell emits %d events; it must outlast the first context poll", n)
	}

	// Right after a cancelled or failed run, on this goroutine (and so,
	// normally, the same pooled state), every cell is unaffected: same
	// answer, and the same fast-forward decisions whatever ran before.
	skipped := sim.ReadReplayCounters().IterationsSkipped
	for i := range cells {
		if err := cancelMidRun(long); err != nil {
			t.Fatal(err)
		}
		before := sim.ReadReplayCounters()
		if err := checkCell(context.Background(), &cells[i]); err != nil {
			t.Fatal(err)
		}
		afterCancel := counterDelta(before, sim.ReadReplayCounters())
		if _, err := core.ExtrapolateEncoded(context.Background(), invalid, cells[i].cfg); err == nil {
			t.Fatal("invalid trace accepted")
		}
		before = sim.ReadReplayCounters()
		if err := checkCell(context.Background(), &cells[i]); err != nil {
			t.Fatal(err)
		}
		if afterFail := counterDelta(before, sim.ReadReplayCounters()); afterFail != afterCancel {
			t.Fatalf("%s: fast-forward %+v after a failed run, %+v after a cancelled one", cells[i].name, afterFail, afterCancel)
		}
	}

	if sim.ReadReplayCounters().IterationsSkipped == skipped {
		t.Fatal("no cell fast-forwarded; the mix must cover skipping runs")
	}

	const workers, rounds = 4, 3
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(cells) + 2) {
					var err error
					switch {
					case i == len(cells):
						err = cancelMidRun(long)
					case i == len(cells)+1:
						if _, verr := core.ExtrapolateEncoded(context.Background(), invalid, cells[0].cfg); verr == nil {
							err = errors.New("invalid trace accepted")
						}
					default:
						err = checkCell(context.Background(), &cells[i])
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatal("concurrent cells did not finish")
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
