package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a tail latency may be reported at, from
// the highest down.
var tailLevels = []float64{99, 98, 95, 90, 75, 50}

// tailLevel is the highest of tailLevels with at least ten of n samples
// beyond it. With n ≥ 1000 that is p99.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
