package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"extrap/internal/sim"
)

// TestExtrapolateBatchLanes: a batch runs its lanes one after another
// over one arena. Each lane equals its independent extrapolation, an
// invalid lane aborts the batch with the lane index in the error (valid
// earlier lanes do not mask it), and zero configs is a no-op, not an
// error.
func TestExtrapolateBatchLanes(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := freeConfig()
	bad.Procs = 3 // 4 threads not divisible by 3
	if _, err := ExtrapolateBatch(ctx, tr, []sim.Config{freeConfig(), bad}); err == nil || !strings.Contains(err.Error(), "lane 1") {
		t.Errorf("error %v does not name lane 1", err)
	}
	preds, err := ExtrapolateBatch(ctx, tr, nil)
	if err != nil || len(preds) != 0 {
		t.Fatalf("empty batch: %d predictions, err %v", len(preds), err)
	}
	// Lanes sharing one arena equal independent extrapolations.
	cfgs := []sim.Config{freeConfig(), freeConfig(), freeConfig()}
	cfgs[1].MipsRatio = 0.5
	cfgs[2].Procs = 2
	preds, err = ExtrapolateBatch(ctx, tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := Extrapolate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds[i].Result, want.Result) {
			t.Errorf("lane %d differs from its independent extrapolation", i)
		}
	}
}
