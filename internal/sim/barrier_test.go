package sim

import (
	"context"
	"strings"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

func TestTreeBarrierMessagesProduceValidTrace(t *testing.T) {
	pt := measureAndTranslate(t, 7, func(th *pcxx.Thread) { // non-power-of-two
		th.Compute(vtime.Time(th.ID()+1) * 10 * vtime.Microsecond)
		th.Barrier()
		th.Compute(5 * vtime.Microsecond)
		th.Barrier()
	})
	cfg := zeroConfig()
	cfg.Barrier = DefaultBarrier()
	cfg.Barrier.Algorithm = TreeBarrier
	cfg.Comm = network.Config{
		StartupTime:      5 * vtime.Microsecond,
		ByteTransferTime: 50 * vtime.Nanosecond,
		Topology:         network.Bus{},
		RequestBytes:     16,
	}
	cfg.EmitTrace = true
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers != 2 {
		t.Fatalf("Barriers = %d", res.Barriers)
	}
	// Every thread completed both barriers.
	for i, s := range res.Threads {
		if s.Barriers != 2 {
			t.Errorf("thread %d barriers = %d", i, s.Barriers)
		}
	}
	// Tree messages: arrival (n−1 child→parent) + release (n−1
	// parent→child) per barrier.
	var arrive, release int64
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindMsgSend {
			switch e.Arg2 {
			case int64(mBarArrive):
				arrive++
			case int64(mBarRelease):
				release++
			}
		}
	}
	if arrive != 2*6 || release != 2*6 {
		t.Errorf("tree barrier messages: %d arrivals, %d releases; want 12 each", arrive, release)
	}
}

func TestTreeBarrierOrdering(t *testing.T) {
	// With messages, no thread's exit precedes the root's release start —
	// i.e., every exit is at or after the latest entry.
	pt := measureAndTranslate(t, 8, func(th *pcxx.Thread) {
		th.Compute(vtime.Time(th.ID()*3+1) * 10 * vtime.Microsecond)
		th.Barrier()
	})
	cfg := zeroConfig()
	cfg.Barrier = DefaultBarrier()
	cfg.Barrier.Algorithm = TreeBarrier
	cfg.Comm = network.Config{
		StartupTime: 5 * vtime.Microsecond,
		Topology:    network.Bus{},
	}
	cfg.EmitTrace = true
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastEntry vtime.Time
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindBarrierEntry && e.Time > lastEntry {
			lastEntry = e.Time
		}
	}
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindBarrierExit && e.Time < lastEntry {
			t.Fatalf("exit at %v before last entry %v", e.Time, lastEntry)
		}
	}
}

func TestLinearMessageBarrierReleaseOrder(t *testing.T) {
	// The master releases slaves in id order; with a serial release chain
	// slave 1's exit cannot be after slave n−1's by more than the chain's
	// span, and exits are non-decreasing in slave id for equal entries.
	pt := measureAndTranslate(t, 6, func(th *pcxx.Thread) {
		th.Compute(10 * vtime.Microsecond)
		th.Barrier()
	})
	cfg := zeroConfig()
	cfg.Barrier = DefaultBarrier()
	cfg.Comm = network.Config{
		StartupTime: 10 * vtime.Microsecond,
		Topology:    network.Bus{},
	}
	cfg.EmitTrace = true
	res, err := Simulate(context.Background(), pt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exits := make(map[int32]vtime.Time)
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindBarrierExit {
			exits[e.Thread] = e.Time
		}
	}
	for s := int32(2); s < 6; s++ {
		if exits[s] < exits[s-1] {
			t.Errorf("slave %d exits at %v before slave %d at %v (release chain order)",
				s, exits[s], s-1, exits[s-1])
		}
	}
}

func TestAnalyticVariantsCheaperThanMessages(t *testing.T) {
	for _, alg := range []BarrierAlgorithm{LinearBarrier, TreeBarrier} {
		cost := func(byMsgs bool) vtime.Time {
			pt := measureAndTranslate(t, 16, func(th *pcxx.Thread) {
				th.Compute(10 * vtime.Microsecond)
				th.Barrier()
			})
			cfg := zeroConfig()
			cfg.Barrier = DefaultBarrier()
			cfg.Barrier.Algorithm = alg
			cfg.Barrier.ByMsgs = byMsgs
			cfg.Comm = network.Config{
				StartupTime: 20 * vtime.Microsecond,
				Topology:    network.Bus{},
			}
			res, err := Simulate(context.Background(), pt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.TotalTime
		}
		if m, a := cost(true), cost(false); a >= m {
			t.Errorf("%v: analytic barrier (%v) not cheaper than message barrier (%v)", alg, a, m)
		}
	}
}

func TestNumChildren(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 1, 0}, {0, 2, 1}, {0, 3, 2}, {1, 3, 0}, {0, 7, 2}, {2, 7, 2}, {3, 7, 0}, {1, 4, 1},
	}
	for _, c := range cases {
		if got := numChildren(c.i, c.n); got != c.want {
			t.Errorf("numChildren(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 32: 5}
	for in, want := range cases {
		if got := log2ceil(in); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

// barrierTrace is a hand-built two-thread trace that passes the given
// barrier ids in order, 10 µs of compute before each.
func barrierTrace(ids ...int64) *translate.ParallelTrace {
	pt := &translate.ParallelTrace{NumThreads: 2, Threads: make([][]trace.Event, 2)}
	for th := int32(0); th < 2; th++ {
		evs := []trace.Event{{Kind: trace.KindThreadStart, Thread: th, Arg0: 2}}
		at := vtime.Time(0)
		for _, id := range ids {
			at += 10 * vtime.Microsecond
			evs = append(evs,
				trace.Event{Time: at, Kind: trace.KindBarrierEntry, Thread: th, Arg0: id},
				trace.Event{Time: at, Kind: trace.KindBarrierExit, Thread: th, Arg0: id})
		}
		evs = append(evs, trace.Event{Time: at + vtime.Microsecond, Kind: trace.KindThreadEnd, Thread: th})
		pt.Threads[th] = evs
	}
	return pt
}

// TestBarrierRingRejectsRecycledIDs: the engine keeps only the most
// recent barrier records, so an id older than that window — or a
// negative one — is an error, never a read of a recycled slot. Ids that
// skip ahead, or revisit an id still in the window, are fine.
func TestBarrierRingRejectsRecycledIDs(t *testing.T) {
	for _, alg := range []BarrierAlgorithm{LinearBarrier, TreeBarrier} {
		cfg := zeroConfig()
		cfg.Barrier = DefaultBarrier()
		cfg.Barrier.Algorithm = alg
		for _, ids := range [][]int64{{0, 1, 2}, {0, 7, 9}, {6, 4}} {
			res, err := Simulate(context.Background(), barrierTrace(ids...), cfg)
			if err != nil {
				t.Fatalf("%v ids %v: %v", alg, ids, err)
			}
			if res.Barriers != len(ids) {
				t.Fatalf("%v ids %v: Barriers = %d", alg, ids, res.Barriers)
			}
		}
		for _, ids := range [][]int64{{9, 2}, {-1}} {
			_, err := Simulate(context.Background(), barrierTrace(ids...), cfg)
			if err == nil || !strings.Contains(err.Error(), "state was recycled") {
				t.Fatalf("%v ids %v: err = %v, want a recycled-barrier error", alg, ids, err)
			}
		}
	}
}
