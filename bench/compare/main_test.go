package main

import "testing"

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster in every pair", base, shift(-5), "improved"},
		{"same", base, base, "within bound"},
		{"slightly slower", base, shift(5), "within bound"},
		{"much slower", base, shift(20), "worse"},
		{"parent too noisy", noisy, shift(5), "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, lower); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
