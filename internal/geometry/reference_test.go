package geometry

import (
	"fmt"
	"math"
)

// solveEpsReference is the pre-optimization Eq 8 inversion: a Newton
// iteration with a centered numeric derivative (three full ExpectedCount
// evaluations per step) safeguarded by bisection. It is retained verbatim as
// the golden oracle for the optimized SolveEpsForCount —
// TestPropSolverMatchesReference checks agreement to 1e-9.
func solveEpsReference(d int, k float64, spheres []SphereAt) float64 {
	if len(spheres) == 0 || k <= 0 {
		return 0
	}
	var total float64
	hi := 0.0
	for _, s := range spheres {
		total += float64(s.Items)
		if reach := s.Dist + s.Radius; reach > hi {
			hi = reach
		}
	}
	if k >= total {
		return hi
	}
	lo := 0.0
	f := func(eps float64) float64 { return ExpectedCount(d, eps, spheres) - k }
	// Newton with numeric derivative, safeguarded: every step must stay in
	// [lo, hi]; otherwise fall back to bisection on the bracketing interval.
	eps := hi / 2
	const iters = 100
	for i := 0; i < iters; i++ {
		fv := f(eps)
		if math.Abs(fv) < 1e-9*math.Max(1, k) || hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
		if fv > 0 {
			hi = eps
		} else {
			lo = eps
		}
		h := 1e-6 * math.Max(eps, 1e-6)
		df := (f(eps+h) - f(eps-h)) / (2 * h)
		var next float64
		if df > 0 {
			next = eps - fv/df
		}
		if df <= 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2 // bisection fallback
		}
		eps = next
	}
	return eps
}

// solutionsAgree decides whether two Eq 8 roots are the same answer. Where
// the expected-count curve has healthy slope the roots must coincide to
// 1e-9 (relative to the bracket top hi). On flat plateaus — every sphere
// fully covered or fully disjoint over a stretch of eps — any point of the
// plateau satisfies the solver's |f| stopping tolerance, so two correct
// solvers may legitimately stop at different eps; there the roots agree
// when both reproduce the target count within (a small multiple of) that
// same tolerance.
func solutionsAgree(d int, k, hi, ref, opt float64, spheres []SphereAt) error {
	diff := ref - opt
	if diff < 0 {
		diff = -diff
	}
	if diff <= 1e-9*math.Max(1, hi) {
		return nil
	}
	tol := 2e-9 * math.Max(1, k)
	fr := math.Abs(ExpectedCount(d, ref, spheres) - k)
	fo := math.Abs(ExpectedCount(d, opt, spheres) - k)
	if fr <= tol && fo <= tol {
		return nil
	}
	return fmt.Errorf("ref=%.15g (|f|=%g) opt=%.15g (|f|=%g)", ref, fr, opt, fo)
}
