package geometry

import (
	"fmt"
	"math"
)

// capFractionReference is the incomplete-beta form of the cap fraction,
// ½·I_{sin²phi}((d+1)/2, ½), which every dimension's series must reproduce.
func capFractionReference(d int, phi float64) float64 {
	switch {
	case phi <= 0:
		return 0
	case phi >= math.Pi:
		return 1
	case phi > math.Pi/2:
		return 1 - capFractionReference(d, math.Pi-phi)
	}
	s := math.Sin(phi)
	return 0.5 * RegIncBeta((float64(d)+1)/2, 0.5, s*s)
}

// intersectFractionReference is IntersectFraction evaluated through the beta
// form: two acos calls per lens, a continued fraction per cap, and the ball
// volume ratio through exp and log.
func intersectFractionReference(d int, r, eps, b float64) float64 {
	if r == 0 {
		if b <= eps {
			return 1
		}
		return 0
	}
	if eps == 0 {
		return 0
	}
	switch {
	case b >= r+eps:
		return 0 // disjoint
	case b+r <= eps:
		return 1 // data sphere inside query sphere
	case b+eps <= r:
		// query sphere inside data sphere: ratio of ball volumes (eps/r)^d
		return math.Exp(float64(d) * (math.Log(eps) - math.Log(r)))
	}
	x := (b*b + r*r - eps*eps) / (2 * b)
	alpha := math.Acos(clamp(x/r, -1, 1))      // half-angle of the data-sphere cap
	beta := math.Acos(clamp((b-x)/eps, -1, 1)) // half-angle of the query-sphere cap
	frac := capFractionReference(d, alpha) + capFractionReference(d, beta)*math.Exp(float64(d)*(math.Log(eps)-math.Log(r)))
	return clamp(frac, 0, 1)
}

// expectedCountReference is Eq 8 summed over intersectFractionReference.
func expectedCountReference(d int, eps float64, spheres []SphereAt) float64 {
	var k float64
	for _, s := range spheres {
		k += intersectFractionReference(d, s.Radius, eps, s.Dist) * float64(s.Items)
	}
	return k
}

// solveEpsReference is the pre-optimization Eq 8 inversion: a Newton
// iteration with a centered numeric derivative (three full Eq 8 evaluations
// per step) safeguarded by bisection, over the beta form of the cap
// fraction. It is retained as the golden oracle for SolveEpsForCount —
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
	f := func(eps float64) float64 { return expectedCountReference(d, eps, spheres) - k }
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

// CapFractionPaperSeries evaluates the paper's Equation 5 verbatim for even
// dimensionality:
//
//	Vcap/Vsphere = (1/pi) * (alpha - cos(alpha) * sum_{i=0}^{(d-2)/2}
//	                (2^{2i} (i!)^2 / (2i+1)!) * sin(alpha)^{2i+1})
//
// It panics when d is odd (the paper's series only covers even d). It is an
// oracle: CapFraction sums the same series from the cap's cosine.
func CapFractionPaperSeries(d int, alpha float64) float64 {
	if d < 2 || d%2 != 0 {
		panic(fmt.Sprintf("geometry: paper series requires even d >= 2, got %d", d))
	}
	if alpha <= 0 {
		return 0
	}
	if alpha >= math.Pi {
		return 1
	}
	sin, cos := math.Sin(alpha), math.Cos(alpha)
	term := 1.0 // 2^{2i}(i!)^2/(2i+1)! at i=0
	sum := 0.0
	sinPow := sin // sin^{2i+1} at i=0
	for i := 0; ; i++ {
		sum += term * sinPow
		if i == (d-2)/2 {
			break
		}
		// ratio of consecutive coefficients: 2(i+1)/(2i+3)
		term *= 2 * float64(i+1) / float64(2*i+3)
		sinPow *= sin * sin
	}
	return (alpha - cos*sum) / math.Pi
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// computed by the standard continued-fraction expansion (Lentz's method),
// for the beta-form oracles.
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 {
		panic("geometry: RegIncBeta requires a, b > 0")
	}
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	return regIncBetaPre(a, b, x, lgamma(a+b)-lgamma(a)-lgamma(b))
}
