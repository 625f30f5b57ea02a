package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	cases := []struct {
		in     Time
		micros float64
	}{
		{0, 0},
		{Microsecond, 1},
		{Millisecond, 1000},
		{Second, 1e6},
		{500 * Nanosecond, 0.5},
	}
	for _, c := range cases {
		if got := c.in.Micros(); got != c.micros {
			t.Errorf("%d ns: Micros() = %g, want %g", int64(c.in), got, c.micros)
		}
	}
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %g, want 1", Second.Seconds())
	}
	if Millisecond.Millis() != 1 {
		t.Errorf("Millisecond.Millis() = %g, want 1", Millisecond.Millis())
	}
}

func TestFromMicrosRoundTrip(t *testing.T) {
	f := func(us uint32) bool {
		v := float64(us) / 16 // quarter-ns-representable values round-trip
		tm := FromMicros(v)
		return math.Abs(tm.Micros()-v) < 1e-3 // within 1 ns
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMicrosPaperParameters(t *testing.T) {
	// The CM-5 parameter set of Table 3 must survive the µs→ns conversion.
	if got := FromMicros(0.118); got != 118 {
		t.Errorf("FromMicros(0.118) = %d ns, want 118", int64(got))
	}
	if got := FromMicros(10.0); got != 10*Microsecond {
		t.Errorf("FromMicros(10) = %v, want 10µs", got)
	}
}

func TestScale(t *testing.T) {
	if got := Time(1000).Scale(0.41); got != 410 {
		t.Errorf("1000.Scale(0.41) = %d, want 410", int64(got))
	}
	if got := Time(1000).Scale(2.0); got != 2000 {
		t.Errorf("1000.Scale(2.0) = %d, want 2000", int64(got))
	}
	if got := Time(0).Scale(5.0); got != 0 {
		t.Errorf("0.Scale(5) = %d, want 0", int64(got))
	}
	// Rounding, not truncation.
	if got := Time(3).Scale(0.5); got != 2 {
		t.Errorf("3.Scale(0.5) = %d, want 2 (round half up)", int64(got))
	}
}

func TestScaleMonotone(t *testing.T) {
	f := func(a, b uint32, fq uint8) bool {
		factor := float64(fq)/64 + 0.01
		x, y := Time(a), Time(b)
		if x > y {
			x, y = y, x
		}
		return x.Scale(factor) <= y.Scale(factor)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(0)
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Advance(5 * Microsecond)
	c.Advance(0)
	if c.Now() != 5*Microsecond {
		t.Fatalf("clock at %v, want 5µs", c.Now())
	}
}

func TestVirtualClockPanics(t *testing.T) {
	mustPanic(t, "negative advance", func() {
		NewVirtualClock(0).Advance(-1)
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{-500, "-500ns"},
		{Forever, "∞"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
	mustPanic(t, "Intn(0)", func() { r.Intn(0) })
}

func TestNegativeConversions(t *testing.T) {
	if FromMicros(-2) != -2*Microsecond {
		t.Errorf("FromMicros(-2) = %v", FromMicros(-2))
	}
	if Time(-1000).Scale(0.5) != -500 {
		t.Errorf("negative Scale = %v", Time(-1000).Scale(0.5))
	}
}
