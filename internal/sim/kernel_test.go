package sim

import (
	"math/rand"
	"testing"

	"extrap/internal/vtime"
)

// TestEventListOrder drives the future event list with random
// interleavings of schedules, inserts of events whose seq was reserved
// earlier, and pops — many equal timestamps, bursts that leave thousands
// of events pending, and full drains — and checks every pop against a
// reference that finds the (time, seq) minimum by scanning.
func TestEventListOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f fel
		var ref, held []event
		now := vtime.Time(0)
		pops, high := 0, 0
		check := func() {
			if len(ref) == 0 {
				if !f.empty() {
					t.Fatalf("seed %d: list not empty when the reference is", seed)
				}
				return
			}
			min := 0
			for i := range ref {
				if before(&ref[i], &ref[min]) {
					min = i
				}
			}
			got := f.pop()
			if got != ref[min] {
				t.Fatalf("seed %d, pop %d: got (at %d, seq %d), want (at %d, seq %d)",
					seed, pops, got.at, got.seq, ref[min].at, ref[min].seq)
			}
			ref = append(ref[:min], ref[min+1:]...)
			now = got.at
			pops++
		}
		for step := 0; step < 30000; step++ {
			// Phases alternate between bursts that build the list up to
			// thousands of events and stretches that drain it.
			popShare := 2
			if (step/5000)%2 == 1 {
				popShare = 7
			}
			switch op := rng.Intn(10); {
			case op < popShare:
				check()
			case op == 9 && len(held) > 0:
				// An event whose seq was reserved before later schedules.
				ev := held[len(held)-1]
				held = held[:len(held)-1]
				f.insert(ev)
				ref = append(ref, ev)
			default:
				// Few distinct offsets, so timestamps tie often.
				at := now + vtime.Time(rng.Intn(4))*10
				if rng.Intn(20) == 0 {
					at += vtime.Time(rng.Intn(1000)) * 10
				}
				if rng.Intn(8) == 0 {
					held = append(held, event{at: at, seq: f.nextSq, thread: int32(step), msg: noMsg})
					f.nextSq++
					continue
				}
				f.schedule(at, evComputeDone, int32(step), 0, noMsg)
				ref = append(ref, event{at: at, seq: f.nextSq - 1, kind: evComputeDone, thread: int32(step), msg: noMsg})
			}
			if got := len(f.pending()); got != len(ref) {
				t.Fatalf("seed %d, step %d: %d events pending, reference has %d", seed, step, got, len(ref))
			}
			high = max(high, len(ref))
		}
		if high < 2000 {
			t.Fatalf("seed %d: at most %d events pending, want thousands", seed, high)
		}
		for _, ev := range held {
			f.insert(ev)
			ref = append(ref, ev)
		}
		for len(ref) > 0 {
			check()
		}
		check()
	}
}
