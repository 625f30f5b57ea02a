package core_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"extrap/internal/benchmarks"
	_ "extrap/internal/compose" // registers the compose presets
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// sharedTestSize keeps the equivalence sweep's measurements small: every
// registry program at every thread count 1–32.
func sharedTestSize(b benchmarks.Benchmark) benchmarks.Size {
	switch b.Name() {
	case "grid":
		return benchmarks.Size{N: 16, Iters: 12}
	case "mgrid":
		return benchmarks.Size{N: 16, Iters: 2}
	case "sparse":
		return benchmarks.Size{N: 64, Iters: 4}
	case "matmul":
		return benchmarks.Size{N: 16}
	case "sort":
		return benchmarks.Size{N: 256}
	}
	return b.DefaultSize()
}

// sharedConfigs is one point's machine list for the equivalence sweep:
// every preset at procs t and t/2, every barrier algorithm, and a
// clustered machine with cyclic placement.
func sharedConfigs(threads int) []sim.Config {
	var cfgs []sim.Config
	for _, env := range machine.Presets() {
		cfg := env.Config
		cfg.Procs = threads
		cfgs = append(cfgs, cfg)
		if threads%2 == 0 {
			cfg.Procs = threads / 2
			cfgs = append(cfgs, cfg)
		}
	}
	for _, alg := range []sim.BarrierAlgorithm{sim.LinearBarrier, sim.TreeBarrier, sim.HardwareBarrier} {
		cfg := machine.GenericDM().Config
		cfg.Barrier.Algorithm = alg
		cfgs = append(cfgs, cfg)
	}
	if threads%4 == 0 {
		cfg := machine.GenericDM().Config
		cfg.Procs = threads / 2
		cfg.ClusterSize = 2
		cfg.Placement = sim.CyclicPlacement
		cfg.ContextSwitchTime = 10 * vtime.Microsecond
		cfg.IntraComm = network.Config{StartupTime: 2 * vtime.Microsecond, ByteTransferTime: 5 * vtime.Nanosecond, Topology: network.Bus{}, RequestBytes: 16}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestExtrapolateEncodedAllMatchesSolo: the multi-config call answers
// every config exactly as ExtrapolateEncoded does alone, on every
// Prediction field, whichever branch it takes: a translation shared by
// the configs, or a stream per config. The sweep covers both.
func TestExtrapolateEncodedAllMatchesSolo(t *testing.T) {
	ctx := context.Background()
	var shared, streamed int
	for _, b := range benchmarks.All() {
		f := b.Factory(sharedTestSize(b))
		for threads := 1; threads <= 32; threads++ {
			tr, err := core.Measure(f(threads), core.MeasureOptions{SizeMode: pcxx.ActualSize})
			if err != nil {
				continue // a thread count the kernel does not support
			}
			var buf bytes.Buffer
			if err := trace.WriteBinary2(&buf, tr); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			cfgs := sharedConfigs(threads)
			got, err := core.ExtrapolateEncodedAll(ctx, enc, cfgs)
			if err != nil {
				t.Fatalf("%s/%d: %v", b.Name(), threads, err)
			}
			for i, cfg := range cfgs {
				want, err := core.ExtrapolateEncoded(ctx, enc, cfg)
				if err != nil {
					t.Fatalf("%s/%d config %d: %v", b.Name(), threads, i, err)
				}
				if !reflect.DeepEqual(&got[i], want) {
					t.Fatalf("%s/%d config %d: shared call answers %+v, alone %+v", b.Name(), threads, i, got[i].Result, want.Result)
				}
			}
			if ok, err := core.SharesTranslation(enc, len(cfgs)); err != nil {
				t.Fatal(err)
			} else if ok {
				shared++
			} else {
				streamed++
			}
		}
	}
	if shared == 0 || streamed == 0 {
		t.Fatalf("%d points shared a translation and %d streamed; the sweep must cover both branches", shared, streamed)
	}
}

// TestExtrapolateEncodedAllConcurrent: points of different sizes, on
// both branches, run concurrently and each equals its solo answer, so
// the reused translation slabs never leak one point into another. CI
// runs it under -race -count=10.
func TestExtrapolateEncodedAllConcurrent(t *testing.T) {
	type point struct {
		name string
		enc  []byte
		want []core.Prediction
	}
	cfgs := []sim.Config{machine.CM5().Config, machine.GenericDM().Config, machine.SharedMem().Config, machine.Ideal().Config}
	var points []point
	for _, p := range []struct {
		name    string
		size    benchmarks.Size
		threads int
	}{
		{"cyclic", benchmarks.Size{}, 4},
		{"cyclic", benchmarks.Size{}, 32},
		{"matmul", benchmarks.Size{N: 16}, 8},
		{"matmul", benchmarks.Size{N: 32}, 16},
		{"pipeline8", benchmarks.Size{}, 16},
		{"grid", benchmarks.Size{N: 16, Iters: 20}, 8},
	} {
		size := p.size
		if size == (benchmarks.Size{}) {
			b, err := benchmarks.ByName(p.name)
			if err != nil {
				t.Fatal(err)
			}
			size = b.DefaultSize()
		}
		_, enc := measureEncoded(t, p.name, size, p.threads)
		pt := point{name: fmt.Sprintf("%s/%d", p.name, p.threads), enc: enc}
		for _, cfg := range cfgs {
			want, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pt.want = append(pt.want, *want)
		}
		points = append(points, pt)
	}

	const workers, rounds = 4, 3
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range points {
					p := &points[(k+w)%len(points)]
					got, err := core.ExtrapolateEncodedAll(context.Background(), p.enc, cfgs)
					if err == nil && !reflect.DeepEqual(got, p.want) {
						err = fmt.Errorf("%s: concurrent answer differs from solo", p.name)
					}
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSharedTranslationCapped: a trace declaring more events than the
// cap streams per config, even where no run could fast-forward, so no
// slab past the cap is ever sized, and answers as each config alone.
func TestSharedTranslationCapped(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Kind: trace.KindThreadStart, Arg0: 1})
	for i := 1; i <= core.MaxSharedEvents; i++ {
		// Distinct arguments keep the miner from finding any loop.
		tr.Append(trace.Event{Time: vtime.Time(i), Kind: trace.KindPhaseBegin, Arg0: int64(i) * int64(i)})
	}
	tr.Append(trace.Event{Time: vtime.Time(core.MaxSharedEvents + 1), Kind: trace.KindThreadEnd})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	ct, err := trace.CompileBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	never := sim.NeverFastForwards(ct)
	ct.Release()
	if !never {
		t.Fatal("the predicate flags the over-cap trace; the test needs one it clears")
	}
	cfgs := []sim.Config{machine.CM5().Config, machine.Ideal().Config}
	if ok, err := core.SharesTranslation(enc, len(cfgs)); err != nil || ok {
		t.Fatalf("a trace of %d events shares its translation (err %v)", len(tr.Events), err)
	}
	got, err := core.ExtrapolateEncodedAll(context.Background(), enc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got[i], want) {
			t.Fatalf("config %d: the capped call answers %+v, alone %+v", i, got[i].Result, want.Result)
		}
	}
}
