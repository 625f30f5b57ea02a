package pcxx_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// orderSizes are small instances of the registry kernels; anything not
// listed (the composed presets) runs at its default size.
var orderSizes = map[string]benchmarks.Size{
	"embar":   {N: 13},
	"cyclic":  {N: 128, Iters: 4},
	"sparse":  {N: 128, Iters: 3},
	"grid":    {N: 24, Iters: 6},
	"mgrid":   {N: 16, Iters: 2},
	"poisson": {N: 24},
	"sort":    {N: 1024},
	"matmul":  {N: 12},
}

// orderView is everything downstream of measurement that must not
// depend on the order the 1-processor host resumes threads in.
type orderView struct {
	threads     [][]trace.Event
	srcDuration string
	duration    string
	predictions []*core.Prediction
	merged      []trace.Event
}

// viewOf measures one program instance and derives its order-invariant
// view through the production path: XTRP2 encoding, the compiled
// pattern source, the translation stream and the streaming simulator.
func viewOf(t *testing.T, f core.ProgramFactory, threads int) (*orderView, error) {
	t.Helper()
	tr, err := core.Measure(f(threads), core.MeasureOptions{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	ps, err := trace.NewPatternSource(enc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := translate.NewStream(ps.Header(), ps, translate.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := &orderView{merged: tr.Events, threads: make([][]trace.Event, threads)}
	for i := range v.threads {
		cur := s.Thread(i)
		for {
			e, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			v.threads[i] = append(v.threads[i], e)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	v.srcDuration, v.duration = s.SourceDuration().String(), s.Duration().String()
	for _, procs := range []int{threads, threads / 2} {
		if procs == 0 || threads%procs != 0 {
			continue // the simulator maps threads evenly onto processors
		}
		for _, env := range machine.Presets() {
			cfg := env.Config
			cfg.Procs = procs
			p, err := core.ExtrapolateEncoded(context.Background(), enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v.predictions = append(v.predictions, p)
		}
	}
	return v, nil
}

// TestResumeOrderInvariance is the oracle for the measurement runtime's
// resume order: every kernel, composed preset and the nested workload
// fixture, measured with the historical rotating order and with the id
// order, must give equal per-thread translated traces, equal source and
// ideal durations, and equal predictions on every machine preset — only
// the merged trace may differ. It flips a process-wide switch, so it
// must not run in parallel.
func TestResumeOrderInvariance(t *testing.T) {
	type program struct {
		name string
		f    core.ProgramFactory
	}
	var programs []program
	for _, b := range benchmarks.All() {
		size, ok := orderSizes[b.Name()]
		if !ok {
			size = b.DefaultSize()
		}
		programs = append(programs, program{b.Name(), b.Factory(size)})
	}
	raw, err := os.ReadFile("../compose/testdata/nested.json")
	if err != nil {
		t.Fatal(err)
	}
	nested, err := compose.FromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	programs = append(programs, program{"nested.json", nested.Factory(nested.DefaultSize())})
	if n := len(compose.Presets()); n != 3 {
		t.Fatalf("%d compose presets registered, want the 3 this test names", n)
	}

	reordered := 0
	for _, p := range programs {
		for _, threads := range []int{1, 2, 3, 5, 8, 16, 32} {
			name := fmt.Sprintf("%s/%d", p.name, threads)
			restore := pcxx.SetRotatingResume(true)
			rot, rotErr := viewOf(t, p.f, threads)
			restore()
			ord, ordErr := viewOf(t, p.f, threads)
			if rotErr != nil || ordErr != nil {
				// Some kernels reject some thread counts; they must do so
				// identically under both orders.
				if fmt.Sprint(rotErr) != fmt.Sprint(ordErr) {
					t.Errorf("%s: rotating order error %v, id order error %v", name, rotErr, ordErr)
				}
				continue
			}
			if !reflect.DeepEqual(rot.merged, ord.merged) {
				reordered++
			}
			for i := range ord.threads {
				if !reflect.DeepEqual(rot.threads[i], ord.threads[i]) {
					t.Errorf("%s: thread %d translated trace depends on resume order", name, i)
				}
			}
			if rot.srcDuration != ord.srcDuration || rot.duration != ord.duration {
				t.Errorf("%s: durations (1P %s, ideal %s) vs (1P %s, ideal %s)",
					name, rot.srcDuration, rot.duration, ord.srcDuration, ord.duration)
			}
			if !reflect.DeepEqual(rot.predictions, ord.predictions) {
				t.Errorf("%s: predictions depend on resume order", name)
			}
		}
	}
	if reordered == 0 {
		t.Fatal("the rotating-order hook changed no merged trace; the oracle compares nothing")
	}
}
