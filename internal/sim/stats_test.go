package sim

import (
	"strings"
	"testing"

	"extrap/internal/vtime"
)

func TestResultAccessors(t *testing.T) {
	r := &Result{
		TotalTime: 100 * vtime.Microsecond,
		Procs:     4,
		Barriers:  3,
		Threads: []ThreadStats{
			{Compute: 60, CommWait: 20, BarrierWait: 10, Service: 5},
			{Compute: 40, CommWait: 20, BarrierWait: 30, Service: 15},
		},
		Net: NetStats{Messages: 10, Bytes: 1000, TotalTransit: 50 * vtime.Microsecond},
	}
	if r.TotalCompute() != 100 {
		t.Errorf("TotalCompute = %v", r.TotalCompute())
	}
	if r.TotalCommWait() != 40 {
		t.Errorf("TotalCommWait = %v", r.TotalCommWait())
	}
	if r.TotalBarrierWait() != 40 {
		t.Errorf("TotalBarrierWait = %v", r.TotalBarrierWait())
	}
	if r.TotalService() != 20 {
		t.Errorf("TotalService = %v", r.TotalService())
	}
	s := r.String()
	for _, want := range []string{"procs=4", "barriers=3", "comm-wait="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if NoInterrupt.String() != "no-interrupt" || Interrupt.String() != "interrupt" ||
		Poll.String() != "poll" || !strings.Contains(PolicyKind(9).String(), "9") {
		t.Error("PolicyKind names wrong")
	}
	if LinearBarrier.String() != "linear" || TreeBarrier.String() != "tree" ||
		HardwareBarrier.String() != "hardware" || !strings.Contains(BarrierAlgorithm(9).String(), "9") {
		t.Error("BarrierAlgorithm names wrong")
	}
}
