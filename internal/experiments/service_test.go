package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/vtime"
)

// quickSize returns the fast test size for a benchmark.
func quickSize(b benchmarks.Benchmark) benchmarks.Size {
	return Options{Quick: true}.size(b)
}

func TestServiceExtrapolateSharesMeasurements(t *testing.T) {
	s := NewService(2, 0, 0)
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()

	first, err := s.Predict(ctx, b, size, 4, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Predict(ctx, b, size, 4, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.TotalTime != second.Result.TotalTime {
		t.Errorf("repeat extrapolation differs: %v vs %v", first.Result.TotalTime, second.Result.TotalTime)
	}
	hits, misses := s.CacheStats()
	if misses != 1 {
		t.Errorf("measurements run = %d, want 1 (memoized)", misses)
	}
	if hits == 0 {
		t.Error("no cache hits recorded for a repeated request")
	}
}

func TestServiceSweepMatchesRunnerGrid(t *testing.T) {
	b := mustBench(t, "cyclic")
	procs := []int{1, 2, 4}
	r := newRunner(Options{Quick: true, Procs: procs, Workers: 1})
	job := r.job(b, pcxx.ActualSize, freeCfg(), procs)

	want, err := r.runGrid([]sweepJob{job})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(3, 0, 0)
	series, err := RunLadder(context.Background(), s, s.Workers(), b, job.Size, freeEnvs(), procs)
	if err != nil {
		t.Fatal(err)
	}
	got := series[0]
	if len(got) != len(want[0]) {
		t.Fatalf("sweep returned %d points, want %d", len(got), len(want[0]))
	}
	for i := range got {
		if got[i] != want[0][i] {
			t.Errorf("point %d: service %+v != runner %+v", i, got[i], want[0][i])
		}
	}
}

func TestServiceSweepSharesCacheWithExtrapolate(t *testing.T) {
	s := NewService(2, 0, 0)
	b := mustBench(t, "cyclic")
	size := quickSize(b)
	if _, err := RunLadder(context.Background(), s, s.Workers(), b, size, freeEnvs(), []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	_, missesAfterSweep := s.CacheStats()
	// A single prediction at a ladder point must reuse the sweep's trace.
	if _, err := s.Predict(context.Background(), b, size, 2, freeCfg()); err != nil {
		t.Fatal(err)
	}
	_, misses := s.CacheStats()
	if misses != missesAfterSweep {
		t.Errorf("extrapolate after sweep re-measured: misses %d → %d", missesAfterSweep, misses)
	}
}

func TestServiceCancellation(t *testing.T) {
	s := NewService(2, 0, 0)
	b := mustBench(t, "grid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, b, quickSize(b), 4, freeCfg()); !errors.Is(err, context.Canceled) {
		t.Errorf("Predict error = %v, want context.Canceled", err)
	}
	if _, err := RunLadder(ctx, s, s.Workers(), b, quickSize(b), freeEnvs(), []int{1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLadder error = %v, want context.Canceled", err)
	}
	if _, err := s.Predict(context.Background(), b, quickSize(b), 0, freeCfg()); err == nil {
		t.Error("zero thread count accepted")
	}
}

// ladderBench is a stand-in benchmark whose every factory is numbered,
// so a runner can tell which factory a point was given.
type ladderBench struct{ factories atomic.Int32 }

func (*ladderBench) Name() string                 { return "ladder" }
func (*ladderBench) Description() string          { return "" }
func (*ladderBench) DefaultSize() benchmarks.Size { return benchmarks.Size{N: 1, Iters: 1} }
func (lb *ladderBench) Factory(benchmarks.Size) core.ProgramFactory {
	name := fmt.Sprint("factory-", lb.factories.Add(1))
	return func(threads int) core.Program { return core.Program{Name: name, Threads: threads} }
}

// ladderRunner answers point p on machine i with p·1000+i, failing the
// points named in fail. Every call waits until full points are in
// flight (or a second passes), so a pool that runs fewer at once shows
// as a lower peak.
type ladderRunner struct {
	full      int
	fail      map[int]error
	mu        sync.Mutex
	inFlight  int
	peak      int
	calls     int
	factories map[string]bool
	filled    chan struct{}
}

func newLadderRunner(full int, fail map[int]error) *ladderRunner {
	return &ladderRunner{full: full, fail: fail, factories: map[string]bool{}, filled: make(chan struct{})}
}

func (r *ladderRunner) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
	r.mu.Lock()
	r.calls++
	r.factories[f(threads).Name] = true
	r.inFlight++
	if r.inFlight > r.peak {
		r.peak = r.inFlight
		if r.peak == r.full {
			close(r.filled)
		}
	}
	r.mu.Unlock()
	select {
	case <-r.filled:
	case <-time.After(time.Second):
	}
	r.mu.Lock()
	r.inFlight--
	r.mu.Unlock()
	if err := r.fail[threads]; err != nil {
		return nil, err
	}
	times := make([]vtime.Time, len(envs))
	for i := range envs {
		times[i] = vtime.Time(threads*1000 + i)
	}
	return times, nil
}

// TestRunLadder pins RunLadder's contract over a fake runner: series are
// machine-major in envs order with Procs set, the lowest-indexed
// point's error wins, a cancelled context runs no point, at most
// workers points run at once, and every point gets the ladder's one
// factory.
func TestRunLadder(t *testing.T) {
	ladder := []int{1, 2, 4, 8, 16, 32}
	envs := []machine.Env{machine.CM5(), machine.GenericDM()}
	ctx := context.Background()

	b := &ladderBench{}
	r := newLadderRunner(3, nil)
	series, err := RunLadder(ctx, r, 3, b, b.DefaultSize(), envs, ladder)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(envs) {
		t.Fatalf("%d series for %d machines", len(series), len(envs))
	}
	for mi := range envs {
		for pi, p := range ladder {
			want := metrics.Point{Procs: p, Time: vtime.Time(p*1000 + mi)}
			if got := series[mi][pi]; got != want {
				t.Errorf("series[%d][%d] = %+v, want %+v", mi, pi, got, want)
			}
		}
	}
	if r.calls != len(ladder) {
		t.Errorf("%d RunPoint calls for %d points", r.calls, len(ladder))
	}
	if r.peak != 3 {
		t.Errorf("peak %d points in flight, want the worker bound 3", r.peak)
	}
	if n := b.factories.Load(); n != 1 || len(r.factories) != 1 {
		t.Errorf("%d factories built, points saw %d, want one for the ladder", n, len(r.factories))
	}

	errLow, errHigh := errors.New("p=4"), errors.New("p=16")
	r = newLadderRunner(3, map[int]error{4: errLow, 16: errHigh})
	if _, err := RunLadder(ctx, r, 3, b, b.DefaultSize(), envs, ladder); err != errLow {
		t.Errorf("RunLadder error = %v, want the lowest-indexed point's %v", err, errLow)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	r = newLadderRunner(3, nil)
	if _, err := RunLadder(cancelled, r, 3, b, b.DefaultSize(), envs, ladder); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLadder error = %v, want context.Canceled", err)
	}
	if r.calls != 0 {
		t.Errorf("cancelled ladder ran %d points, want none", r.calls)
	}
}

// anchorRunner answers each point from answer and records the points it
// was asked for, the machines each call carried and the factories it
// saw.
type anchorRunner struct {
	answer    func(threads, machines int) []vtime.Time
	threads   []int
	machines  [][]string
	factories map[string]bool
}

func (r *anchorRunner) RunPoint(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, f core.ProgramFactory, threads int, envs []machine.Env) ([]vtime.Time, error) {
	r.threads = append(r.threads, threads)
	names := make([]string, len(envs))
	for i, env := range envs {
		names[i] = env.Name
	}
	r.machines = append(r.machines, names)
	r.factories[f(threads).Name] = true
	return r.answer(threads, len(envs)), nil
}

// TestFitLadder pins FitLadder's contract over a fake runner: the
// ladder's one factory is built once, the runner is asked for each
// anchor once, in the order model.Run asks for it (ascending when the
// initial anchors already fit), always with every machine in envs
// order, the result is model.Run's over the same answers, and a
// cancelled context calls no runner.
func TestFitLadder(t *testing.T) {
	var ladder []int
	for p := 1; p <= 32; p++ {
		ladder = append(ladder, p)
	}
	ladder = append(ladder, 8) // a repeated entry is one anchor
	envs := []machine.Env{machine.CM5(), machine.GenericDM()}
	ctx := context.Background()

	// linear fits the basis exactly, so the initial anchors converge;
	// step (Fig 4's plateaus) does not, so refinement adds anchors.
	linear := func(threads, machines int) []vtime.Time {
		out := make([]vtime.Time, machines)
		for i := range out {
			out[i] = vtime.Time(threads*1000 + i)
		}
		return out
	}
	step := func(threads, machines int) []vtime.Time {
		s := 1
		for (s+1)*(s+1) <= threads {
			s++
		}
		out := make([]vtime.Time, machines)
		for i := range out {
			out[i] = vtime.Time(10_000_000/(s*s) + 2000*threads + 7*i)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		answer  func(threads, machines int) []vtime.Time
		refines bool
	}{{"linear", linear, false}, {"step", step, true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := &ladderBench{}
			r := &anchorRunner{answer: tc.answer, factories: map[string]bool{}}
			got, err := FitLadder(ctx, r, b, b.DefaultSize(), envs, ladder)
			if err != nil {
				t.Fatal(err)
			}
			var order []int
			want, err := model.Run(ctx, ladder, len(envs), func(_ context.Context, threads int) ([]vtime.Time, error) {
				order = append(order, threads)
				return tc.answer(threads, len(envs)), nil
			}, model.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("FitLadder result differs from model.Run over the same answers:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(r.threads, order) {
				t.Errorf("runner asked for points %v, model.Run for %v", r.threads, order)
			}
			anchors := make([]int, len(got.Anchors))
			for i, a := range got.Anchors {
				anchors[i] = a.Procs
			}
			asked := append([]int(nil), r.threads...)
			sort.Ints(asked)
			if !reflect.DeepEqual(asked, anchors) {
				t.Errorf("runner asked for %v, want each anchor %v once", r.threads, anchors)
			}
			if refined := got.Iterations > 1; refined != tc.refines {
				t.Errorf("%d fit rounds, want refinement %v", got.Iterations, tc.refines)
			}
			if !tc.refines && !sort.IntsAreSorted(r.threads) {
				t.Errorf("initial anchors asked for out of order: %v", r.threads)
			}
			for i, names := range r.machines {
				if !reflect.DeepEqual(names, []string{"cm5", "generic-dm"}) {
					t.Errorf("call %d carried machines %v, want cm5 and generic-dm in order", i, names)
				}
			}
			if n := b.factories.Load(); n != 1 || len(r.factories) != 1 {
				t.Errorf("%d factories built, points saw %d, want one for the ladder", n, len(r.factories))
			}
		})
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	b := &ladderBench{}
	r := &anchorRunner{answer: linear, factories: map[string]bool{}}
	if _, err := FitLadder(cancelled, r, b, b.DefaultSize(), envs, ladder); !errors.Is(err, context.Canceled) {
		t.Errorf("FitLadder error = %v, want context.Canceled", err)
	}
	if len(r.threads) != 0 {
		t.Errorf("cancelled fit ran points %v, want none", r.threads)
	}
}
