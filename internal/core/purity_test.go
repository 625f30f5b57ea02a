package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"extrap/internal/sim"
	"extrap/internal/translate"
)

// TestPipelineInputsReadOnly guards the contract the figure runner's
// memo depends on: Translate must not mutate the measurement trace, and Simulate must
// not mutate the translated trace, so both can be shared across many
// configurations and goroutines.
func TestPipelineInputsReadOnly(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Clone()

	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, orig) {
		t.Fatal("Translate mutated its input trace")
	}

	// A reference translation of the untouched clone, to detect any
	// mutation of pt by Simulate.
	ptRef, err := translate.Translate(orig)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := []sim.Config{freeConfig(), freeConfig()}
	cfgs[1].MipsRatio = 0.5
	for _, cfg := range cfgs {
		if _, err := sim.Simulate(context.Background(), pt, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(tr, orig) {
		t.Fatal("Simulate mutated the measurement trace")
	}
	if !reflect.DeepEqual(pt, ptRef) {
		t.Fatal("Simulate mutated the translated trace")
	}
}

// TestSimulateSharedTraceConcurrently: one translated trace simulated
// from many goroutines (the figure runner's sharing pattern) must race-cleanly
// produce the same result everywhere.
func TestSimulateSharedTraceConcurrently(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := translate.Translate(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Simulate(context.Background(), pt, freeConfig())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sim.Simulate(context.Background(), pt, freeConfig())
			if err != nil {
				t.Error(err)
				return
			}
			if res.TotalTime != want.TotalTime {
				t.Errorf("concurrent Simulate: TotalTime %v, want %v", res.TotalTime, want.TotalTime)
			}
		}()
	}
	wg.Wait()
}
