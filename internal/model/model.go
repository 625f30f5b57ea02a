// Package model turns dense sweep ladders into sparse work: it fits
// analytic time curves over a small fixed basis to a handful of
// truly-simulated anchor points and answers the remaining ladder cells
// by evaluating the fit, with per-point uncertainty intervals derived
// from the fit covariance.
//
// The basis is the classic scaling vocabulary — a serial term (1), an
// Amdahl/Gustafson parallel term (1/p), and logarithmic and linear
// communication terms (log2 p, p) — so T(p) ≈ c0 + c1/p + c2·log2(p) +
// c3·p. Refinement is residual-driven: start from a small evenly-spaced
// anchor set (always including the ladder's endpoints, so the speedup
// baseline is exact), fit, and while the worst relative anchor residual
// exceeds the tolerance, simulate the non-anchor ladder point with the
// largest relative predictive standard error, refit, and repeat until
// the tolerance or the anchor budget is hit.
//
// Everything is deterministic by construction: the basis is fixed, the
// normal equations are ridge-stabilized and solved by Cholesky without
// pivoting (a fixed operation order — no data-dependent row swaps), the
// next anchor is chosen by a strict-greater scan over ascending
// processor counts (ties go to the lowest count), and there is no RNG
// anywhere. The same ladder and anchor values therefore produce the
// same fit, bit for bit, on every run — which is what lets Replay
// re-derive a byte-identical result from persisted anchors after a
// crash, on any replica.
package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"extrap/internal/vtime"
)

// BasisNames labels the fixed basis functions in fit order; coefficient
// i of a curve fit multiplies BasisNames[i]. With fewer anchors than
// basis terms the basis is truncated in this order (the low-order terms
// survive), never reordered.
var BasisNames = []string{"1", "1/p", "log2(p)", "p"}

const basisTerms = 4

// basisVec evaluates the first k basis terms at processor count p.
func basisVec(p, k int) [basisTerms]float64 {
	fp := float64(p)
	v := [basisTerms]float64{1, 1 / fp, math.Log2(fp), fp}
	for i := k; i < basisTerms; i++ {
		v[i] = 0
	}
	return v
}

// Default fitting parameters. The tolerance is a relative residual —
// 0.005 means every anchor is reproduced within 0.5% before refinement
// stops early — and the anchor budget is the quarter-of-the-ladder
// ceiling the fitted mode's cost contract advertises.
const (
	DefaultTolerance  = 0.005
	DefaultAnchorFrac = 0.25
	DefaultMinAnchors = 6
)

// Options shape a fit. The zero value selects the defaults; every
// caller that wants Replay to reproduce a Run must use the same
// Options for both (the serving layers always use the zero value).
type Options struct {
	// Tolerance is the convergence target for the maximum relative
	// anchor residual; ≤ 0 selects DefaultTolerance.
	Tolerance float64
	// AnchorFrac bounds simulated anchors as a fraction of the ladder's
	// distinct points; outside (0, 1] selects DefaultAnchorFrac.
	AnchorFrac float64
	// MinAnchors is the floor on the anchor budget (and the initial
	// anchor count), so short ladders still get enough support for the
	// basis; ≤ 0 selects DefaultMinAnchors, and values below the basis
	// size are raised to it.
	MinAnchors int
}

func (o Options) withDefaults() Options {
	if o.Tolerance <= 0 {
		o.Tolerance = DefaultTolerance
	}
	if o.AnchorFrac <= 0 || o.AnchorFrac > 1 {
		o.AnchorFrac = DefaultAnchorFrac
	}
	if o.MinAnchors <= 0 {
		o.MinAnchors = DefaultMinAnchors
	} else if o.MinAnchors < basisTerms {
		o.MinAnchors = basisTerms
	}
	return o
}

// AnchorBudget reports the maximum number of distinct ladder points Run
// may simulate for a ladder with n distinct entries: the larger of
// MinAnchors and AnchorFrac·n, capped at n. Exported so serving layers
// can derive the fitted mode's work budget from the same arithmetic.
func AnchorBudget(n int, o Options) int {
	o = o.withDefaults()
	b := int(float64(n) * o.AnchorFrac)
	if b < o.MinAnchors {
		b = o.MinAnchors
	}
	if b > n {
		b = n
	}
	return b
}

// Simulator produces the exact simulated total time of every curve
// (machine model) at one ladder point. Run calls it serially, in
// ascending processor order within each refinement round, so its
// implementations need no internal ordering discipline.
type Simulator func(ctx context.Context, procs int) ([]vtime.Time, error)

// Anchor is one truly-simulated ladder point: the processor count and
// the exact per-curve times. Anchors are what persists — Replay rebuilds
// the whole fitted result from them.
type Anchor struct {
	Procs int
	Times []vtime.Time // one exact total per curve, in curve order
}

// Point is one rendered ladder cell of a fitted curve.
type Point struct {
	// Procs is the ladder entry.
	Procs int
	// Simulated reports the cell's provenance: true for an anchor (Value
	// is the exact simulation, Exact holds it as an integer), false for
	// a cell answered by evaluating the fit.
	Simulated bool
	// Value is the predicted total time in virtual nanoseconds — exact
	// for anchors, the fit's evaluation otherwise.
	Value float64
	// Exact is the integer simulation result; valid only when Simulated.
	Exact vtime.Time
	// Interval is the ± half-width of the fit's ~95% prediction band in
	// virtual nanoseconds (2× the predictive standard error from the fit
	// covariance); 0 for simulated cells.
	Interval float64
}

// CurveFit is one curve's fitted ladder plus its fit diagnostics.
type CurveFit struct {
	// Points has one entry per ladder cell, in ladder order.
	Points []Point
	// Coeffs are the basis coefficients, aligned with BasisNames
	// (truncated when the anchor count is below the basis size).
	Coeffs []float64
	// MaxRelResidual and MeanRelResidual summarize how well the final
	// fit reproduces its own anchors, relative to each anchor's value.
	MaxRelResidual  float64
	MeanRelResidual float64
}

// Result is a completed fit over a ladder.
type Result struct {
	Ladder  []int
	Anchors []Anchor // ascending processor order
	Curves  []CurveFit
	// Iterations counts fit rounds (one initial fit plus one per
	// refinement anchor).
	Iterations int
	// Converged reports whether the tolerance was met (vs. stopping at
	// the anchor budget).
	Converged bool
	Tolerance float64
	// Budget is the anchor ceiling the refinement ran under.
	Budget int
	// ResidualHistory records the maximum relative anchor residual after
	// each fit round; refinement drives it down round over round.
	ResidualHistory []float64
}

// Package counters for /debug/vars, mirroring the pattern of
// trace.ReadCompressionCounters: cheap atomics bumped on the hot path,
// snapshot on demand. Replay bumps nothing — the counters describe
// fitting work performed, and a replay only re-derives arithmetic.
var (
	ctrRuns    atomic.Int64
	ctrIters   atomic.Int64
	ctrAnchors atomic.Int64
	ctrFitted  atomic.Int64
)

// Counters is a snapshot of the package's fitting activity.
type Counters struct {
	Runs             int64 // completed Run calls
	FitIterations    int64 // fit rounds across all runs
	AnchorsSimulated int64 // ladder points truly simulated
	CellsFitted      int64 // ladder cells answered by evaluation
}

// ReadCounters snapshots the package counters.
func ReadCounters() Counters {
	return Counters{
		Runs:             ctrRuns.Load(),
		FitIterations:    ctrIters.Load(),
		AnchorsSimulated: ctrAnchors.Load(),
		CellsFitted:      ctrFitted.Load(),
	}
}

// Run fits every curve over the ladder, simulating anchors through sim
// as refinement demands them. curves is how many values sim yields per
// point (one per machine model). The returned Result's anchor set is a
// deterministic function of (ladder, anchor values, opts), which is the
// property Replay relies on.
func Run(ctx context.Context, ladder []int, curves int, sim Simulator, opts Options) (*Result, error) {
	return run(ctx, ladder, curves, sim, opts, true)
}

// Replay re-derives a fitted Result from persisted anchors: it reruns
// the refinement with a simulator that only looks anchors up, so the
// selection walk re-requests exactly the set Run simulated and the
// output is byte-identical to the original Run — across process
// restarts and replicas. A stored set that the deterministic walk would
// not have produced (corruption, or Options drift) is rejected.
func Replay(ladder []int, anchors []Anchor, opts Options) (*Result, error) {
	if len(anchors) == 0 {
		return nil, errors.New("model: replay needs at least one anchor")
	}
	curves := len(anchors[0].Times)
	lookup := make(map[int][]vtime.Time, len(anchors))
	for _, a := range anchors {
		if len(a.Times) != curves {
			return nil, fmt.Errorf("model: anchor p=%d has %d curves, want %d", a.Procs, len(a.Times), curves)
		}
		if _, dup := lookup[a.Procs]; dup {
			return nil, fmt.Errorf("model: duplicate anchor p=%d", a.Procs)
		}
		lookup[a.Procs] = a.Times
	}
	sim := func(_ context.Context, p int) ([]vtime.Time, error) {
		ts, ok := lookup[p]
		if !ok {
			return nil, fmt.Errorf("model: stored anchors are missing p=%d (refinement would have simulated it)", p)
		}
		return ts, nil
	}
	res, err := run(context.Background(), ladder, curves, sim, opts, false)
	if err != nil {
		return nil, err
	}
	if len(res.Anchors) != len(lookup) {
		return nil, fmt.Errorf("model: %d stored anchors but refinement selected %d — anchor set does not match this ladder",
			len(lookup), len(res.Anchors))
	}
	return res, nil
}

func run(ctx context.Context, ladder []int, curves int, sim Simulator, opts Options, count bool) (*Result, error) {
	o := opts.withDefaults()
	if len(ladder) == 0 {
		return nil, errors.New("model: empty ladder")
	}
	if curves < 1 {
		return nil, fmt.Errorf("model: need at least one curve, got %d", curves)
	}
	for _, p := range ladder {
		if p < 1 {
			return nil, fmt.Errorf("model: ladder entry %d must be ≥ 1", p)
		}
	}
	u := distinctSorted(ladder)
	budget := AnchorBudget(len(u), o)

	// Initial anchors: MinAnchors points (clamped to the budget and the
	// ladder) evenly spaced over the distinct counts, endpoints included
	// — the low end anchors the speedup baseline exactly, the high end
	// pins the extrapolation-prone tail.
	isAnchor := make([]bool, len(u))
	init := o.MinAnchors
	if init > budget {
		init = budget
	}
	if init >= len(u) {
		for i := range isAnchor {
			isAnchor[i] = true
		}
	} else {
		for i := 0; i < init; i++ {
			idx := (2*i*(len(u)-1) + init - 1) / (2 * (init - 1))
			isAnchor[idx] = true
		}
		isAnchor[0] = true
		isAnchor[len(u)-1] = true
	}

	times := make(map[int][]vtime.Time, budget)
	fits := make([]curveFit, curves)
	var history []float64
	iterations := 0
	converged := false
	for {
		// Simulate anchors not yet measured, ascending.
		for ui, p := range u {
			if !isAnchor[ui] {
				continue
			}
			if _, ok := times[p]; ok {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ts, err := sim(ctx, p)
			if err != nil {
				return nil, fmt.Errorf("model: simulating anchor p=%d: %w", p, err)
			}
			if len(ts) != curves {
				return nil, fmt.Errorf("model: simulator returned %d curves at p=%d, want %d", len(ts), p, curves)
			}
			times[p] = append([]vtime.Time(nil), ts...)
			if count {
				ctrAnchors.Add(1)
			}
		}

		// Refit every curve over the current anchors.
		var anchorPs []int
		for ui, p := range u {
			if isAnchor[ui] {
				anchorPs = append(anchorPs, p)
			}
		}
		maxRel := 0.0
		for c := 0; c < curves; c++ {
			ys := make([]float64, len(anchorPs))
			for i, p := range anchorPs {
				ys[i] = float64(times[p][c])
			}
			fits[c] = fitCurve(anchorPs, ys)
			if fits[c].maxRel > maxRel {
				maxRel = fits[c].maxRel
			}
		}
		iterations++
		if count {
			ctrIters.Add(1)
		}
		history = append(history, maxRel)
		if maxRel <= o.Tolerance {
			converged = true
			break
		}
		if len(anchorPs) >= budget || len(anchorPs) == len(u) {
			break
		}

		// Next anchor: the non-anchor point where the fit is least sure
		// of itself — the largest relative predictive standard error
		// across curves. The ascending strict-greater scan makes ties
		// resolve to the lowest processor count, deterministically.
		best, bestScore := -1, -1.0
		for ui, p := range u {
			if isAnchor[ui] {
				continue
			}
			score := 0.0
			for c := range fits {
				if s := fits[c].relStderr(p); s > score {
					score = s
				}
			}
			if score > bestScore {
				best, bestScore = ui, score
			}
		}
		if best < 0 {
			break
		}
		isAnchor[best] = true
	}

	res := &Result{
		Ladder:          append([]int(nil), ladder...),
		Curves:          make([]CurveFit, curves),
		Iterations:      iterations,
		Converged:       converged,
		Tolerance:       o.Tolerance,
		Budget:          budget,
		ResidualHistory: history,
	}
	for ui, p := range u {
		if isAnchor[ui] {
			res.Anchors = append(res.Anchors, Anchor{Procs: p, Times: times[p]})
		}
	}
	for c := 0; c < curves; c++ {
		f := &fits[c]
		cf := CurveFit{
			Points:          make([]Point, len(ladder)),
			Coeffs:          append([]float64(nil), f.coeffs[:f.k]...),
			MaxRelResidual:  f.maxRel,
			MeanRelResidual: f.meanRel,
		}
		for li, p := range ladder {
			if ts, ok := times[p]; ok {
				cf.Points[li] = Point{Procs: p, Simulated: true, Value: float64(ts[c]), Exact: ts[c]}
				continue
			}
			cf.Points[li] = Point{Procs: p, Value: f.predict(p), Interval: 2 * f.stderr(p)}
			if count {
				ctrFitted.Add(1)
			}
		}
		res.Curves[c] = cf
	}
	if count {
		ctrRuns.Add(1)
	}
	return res, nil
}

// curveFit is one curve's solved least-squares state.
type curveFit struct {
	k       int // active basis terms (≤ basisTerms)
	coeffs  [basisTerms]float64
	ainv    [basisTerms][basisTerms]float64 // inverse of the regularized normal matrix
	s2      float64                         // residual variance estimate
	maxRel  float64
	meanRel float64
}

// fitCurve solves the least-squares problem over the anchors via the
// normal equations: A = XᵀX (ridge-stabilized by a tiny multiple of its
// largest diagonal, so A is strictly positive definite and Cholesky
// needs no pivoting), b = Xᵀy. The basis truncates to the anchor count
// when anchors are scarce. A numerically hopeless system degrades to
// the zero fit — deterministic, and its huge residuals simply drive
// refinement to add more anchors.
func fitCurve(ps []int, ys []float64) curveFit {
	m := len(ps)
	k := basisTerms
	if k > m {
		k = m
	}
	var a [basisTerms][basisTerms]float64
	var bv [basisTerms]float64
	for i, p := range ps {
		x := basisVec(p, k)
		// Weight each row by 1/y so the solve minimizes RELATIVE squared
		// residuals — the quantity the tolerance and the refinement score
		// are expressed in — instead of letting the largest-magnitude
		// anchors dominate.
		w := math.Abs(ys[i])
		if w < 1 {
			w = 1
		}
		w = 1 / w
		for r := 0; r < k; r++ {
			bv[r] += float64(x[r] * w * w * ys[i])
			for c := 0; c < k; c++ {
				a[r][c] += float64(x[r] * x[c] * w * w)
			}
		}
	}
	maxDiag := 0.0
	for r := 0; r < k; r++ {
		if a[r][r] > maxDiag {
			maxDiag = a[r][r]
		}
	}
	if maxDiag <= 0 {
		maxDiag = 1
	}

	f := curveFit{k: k}
	lam := 1e-12 * maxDiag
	solved := false
	for attempt := 0; attempt < 4 && !solved; attempt++ {
		ar := a
		for r := 0; r < k; r++ {
			ar[r][r] += lam
		}
		var l [basisTerms][basisTerms]float64
		if cholesky(&ar, &l, k) {
			f.coeffs = cholSolve(&l, bv, k)
			for col := 0; col < k; col++ {
				var e [basisTerms]float64
				e[col] = 1
				sol := cholSolve(&l, e, k)
				for r := 0; r < k; r++ {
					f.ainv[r][col] = sol[r]
				}
			}
			solved = true
		}
		lam *= 1e6
	}

	rss, relSum := 0.0, 0.0
	for i, p := range ps {
		r := ys[i] - f.predict(p)
		den := math.Abs(ys[i])
		if den < 1 {
			den = 1
		}
		rel := math.Abs(r) / den
		rss += float64(rel * rel) // weighted residuals, matching the weighted solve
		relSum += rel
		if rel > f.maxRel {
			f.maxRel = rel
		}
	}
	f.meanRel = relSum / float64(m)
	if m > k {
		f.s2 = rss / float64(m-k)
	}
	return f
}

// predict evaluates the fit at processor count p.
func (f *curveFit) predict(p int) float64 {
	x := basisVec(p, f.k)
	s := 0.0
	for i := 0; i < f.k; i++ {
		s += float64(f.coeffs[i] * x[i])
	}
	return s
}

// stderr is the predictive standard error at p: s·sqrt(xᵀ(XᵀX)⁻¹x).
func (f *curveFit) stderr(p int) float64 {
	x := basisVec(p, f.k)
	q := 0.0
	for r := 0; r < f.k; r++ {
		for c := 0; c < f.k; c++ {
			q += float64(x[r] * f.ainv[r][c] * x[c])
		}
	}
	if q < 0 {
		q = 0
	}
	return math.Sqrt(f.s2 * q)
}

// relStderr scales the predictive standard error by the predicted
// magnitude (floored at one nanosecond) — the refinement score.
func (f *curveFit) relStderr(p int) float64 {
	den := math.Abs(f.predict(p))
	if den < 1 {
		den = 1
	}
	return f.stderr(p) / den
}

// cholesky factors the leading k×k block of a as l·lᵀ, reporting
// whether a is positive definite. Fixed iteration order, no pivoting.
func cholesky(a, l *[basisTerms][basisTerms]float64, k int) bool {
	for r := 0; r < k; r++ {
		for c := 0; c <= r; c++ {
			s := a[r][c]
			for j := 0; j < c; j++ {
				s -= float64(l[r][j] * l[c][j])
			}
			if r == c {
				if s <= 0 {
					return false
				}
				l[r][r] = math.Sqrt(s)
			} else {
				l[r][c] = s / l[c][c]
			}
		}
	}
	return true
}

// cholSolve solves l·lᵀ·x = b by forward then back substitution.
func cholSolve(l *[basisTerms][basisTerms]float64, b [basisTerms]float64, k int) [basisTerms]float64 {
	var y [basisTerms]float64
	for r := 0; r < k; r++ {
		s := b[r]
		for j := 0; j < r; j++ {
			s -= float64(l[r][j] * y[j])
		}
		y[r] = s / l[r][r]
	}
	var x [basisTerms]float64
	for r := k - 1; r >= 0; r-- {
		s := y[r]
		for j := r + 1; j < k; j++ {
			s -= float64(l[j][r] * x[j])
		}
		x[r] = s / l[r][r]
	}
	return x
}

// distinctSorted returns the ladder's distinct entries ascending.
func distinctSorted(ladder []int) []int {
	u := append([]int(nil), ladder...)
	sort.Ints(u)
	out := u[:0]
	for i, p := range u {
		if i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}
