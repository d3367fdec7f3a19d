// Package geometry implements the hypersphere volume machinery behind
// Hyper-M's peer relevance score (Eq 1) and k-nn radius estimation (Eq 5–8):
//
//   - the volume fraction of a hyperspherical cap, as a finite series at
//     every dimensionality d >= 1: the paper's Eq 5 for even d and its odd-d
//     twin (the analogue the paper elides for space), both exact forms of a
//     regularized incomplete beta expression; a tiny cap, which needs
//     relative accuracy, sums the series' positive remainder instead, or
//     takes the beta expression where that remainder converges slowly;
//   - the sphere–sphere intersection fraction (Eq 6–7), i.e. the share of a
//     data-cluster sphere's volume covered by a query sphere;
//   - the numeric inversion of the expected-retrieved-items function (Eq 8)
//     that turns "I need k items" into a range-query radius ε, using an
//     Illinois-damped secant/bisection hybrid.
//
// The Eq 1 score and the Eq 8 inversion run through one evaluator, so a
// cluster's covered fraction is the same number in both.
package geometry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// BallVolume returns the volume of a d-dimensional ball of radius r:
// pi^(d/2) / Gamma(d/2+1) * r^d.
func BallVolume(d int, r float64) float64 {
	if d < 0 {
		panic("geometry: negative dimension")
	}
	if d == 0 {
		return 1
	}
	logV := float64(d)/2*math.Log(math.Pi) - lgamma(float64(d)/2+1) + float64(d)*math.Log(r)
	return math.Exp(logV)
}

// CapFraction returns the fraction of a d-dimensional ball's volume contained
// in the spherical cap of colatitude half-angle phi, measured at the ball's
// center (phi = 0 is an empty cap, phi = pi/2 a half ball, phi = pi the whole
// ball). Valid for every d >= 1; it agrees with ½·I_{sin²phi}((d+1)/2, ½) to
// 1e-9.
func CapFraction(d int, phi float64) float64 {
	if d < 1 {
		panic("geometry: CapFraction requires d >= 1")
	}
	switch {
	case phi <= 0:
		return 0
	case phi >= math.Pi:
		return 1
	}
	return seriesFor(d).frac(math.Cos(phi))
}

// capSeries is the cap-volume fraction of one dimension d as a function of
// the cap's cosine u = cos phi, the form the cosine rule hands the lens of
// Eq 6–7. With x = sin² phi = (1-u)(1+u):
//
//	even d (Eq 5): (phi - u·sqrt(x)·Σ_{i=0}^{(d-2)/2} 2^{2i}(i!)²/(2i+1)! · x^i) / pi
//	odd d:         (1 - u·Σ_{j=0}^{(d-1)/2} C(2j,j)/4^j · x^j) / 2
//
// Both equal ½·I_x((d+1)/2, ½) exactly; the odd form is the terminating
// expansion of I_x(n+1, ½) at the integer n = (d-1)/2 (DESIGN.md §7). Odd d
// calls no trig function, even d one acos.
type capSeries struct {
	d   int
	odd bool
	// coef holds the series coefficients by ascending power of x in pairs
	// (c0, c1), (c2, c3), …, the last padded with 0: two Horner chains in x²
	// halve the dependency chain of a long series.
	coef [][2]float64
	// rem holds the remainder's coefficients, from the power of x past
	// the series, (d+1)/2, on.
	rem   [remTerms]float64
	xTiny float64 // the sin² phi of a cap of fraction tinyCap
	a     float64 // (d+1)/2, the beta fallback's first parameter
	lg    float64 // the beta fallback's lgamma prefactor for ((d+1)/2, ½)
}

var (
	seriesMu sync.Mutex // serializes growing seriesMemo
	// seriesMemo holds each dimension's series, indexed by d; a new
	// dimension publishes a grown copy, so readers take no lock.
	seriesMemo atomic.Pointer[[]*capSeries]
)

// seriesFor returns dimension d's capSeries.
func seriesFor(d int) *capSeries {
	if d < 1 {
		panic(fmt.Sprintf("geometry: dimension must be >= 1, got %d", d))
	}
	if m := seriesMemo.Load(); m != nil && d < len(*m) && (*m)[d] != nil {
		return (*m)[d]
	}
	seriesMu.Lock()
	defer seriesMu.Unlock()
	var old []*capSeries
	if m := seriesMemo.Load(); m != nil {
		old = *m
	}
	if d < len(old) && old[d] != nil {
		return old[d]
	}
	next := make([]*capSeries, max(len(old), d+1))
	copy(next, old)
	next[d] = newCapSeries(d)
	seriesMemo.Store(&next)
	return next[d]
}

func newCapSeries(d int) *capSeries {
	c := &capSeries{d: d, odd: d%2 == 1, a: (float64(d) + 1) / 2}
	c.lg = lgamma(c.a+0.5) - lgamma(c.a) - lgamma(0.5)
	n := (d + 1) / 2 // terms
	c.coef = make([][2]float64, (n+1)/2)
	term := 1.0
	for i := range n + remTerms {
		if i < n {
			c.coef[i/2][i%2] = term
		} else {
			c.rem[i-n] = term
		}
		if c.odd {
			term *= float64(2*i+1) / float64(2*i+2) // C(2j,j)/4^j
		} else {
			term *= 2 * float64(i+1) / float64(2*i+3) // 2^{2i}(i!)²/(2i+1)!
		}
	}
	// Below the half ball the fraction grows with x; near tinyCap both
	// forms are accurate, so the cut need not be exact.
	lo, hi := 0.0, 1.0
	for range 60 {
		mid := (lo + hi) / 2
		if c.series(math.Sqrt(1-mid), mid) < tinyCap {
			lo = mid
		} else {
			hi = mid
		}
	}
	c.xTiny = lo
	return c
}

// tinyCap is the cap fraction below which frac leaves the series.
const tinyCap = 1e-3

// frac returns the fraction of a d-ball's volume inside the cap of cosine u
// (u = 1 is an empty cap, u = 0 a half ball, u = -1 the whole ball).
//
// The series of a tiny cap is a difference of near-equal terms, accurate
// only absolutely (~1e-16). A tiny cap needs relative accuracy: the lens
// scales the query cap by (eps/r)^d, and a shallow lens is two tiny caps
// whose sum must stay positive, or Eq 1 drops a cluster the query reaches.
// A cap below tinyCap (x < xTiny) therefore sums the series' remainder, all
// terms positive (the infinite sums are 1/u for odd d, phi/(u·sin phi) for
// even d), where it converges fast (x <= ½), and the beta form elsewhere. A
// cap past the half ball (u < 0) needs no reflection: the series satisfies
// F(-u) = 1 - F(u) term by term, and a value of at least ½ needs only
// absolute accuracy.
func (c *capSeries) frac(u float64) float64 {
	switch {
	case u >= 1:
		return 0
	case u <= -1:
		return 1
	}
	x := (1 - u) * (1 + u)
	switch {
	case u <= 0 || x >= c.xTiny:
		return c.series(u, x)
	case x <= 0.5:
		return c.remainder(u, x)
	}
	return 0.5 * regIncBetaPre(c.a, 0.5, x, c.lg)
}

// series sums the cap fraction at cosine u, x = (1-u)(1+u), from the series.
func (c *capSeries) series(u, x float64) float64 {
	x2 := x * x
	var sumEven, sumOdd float64
	for i := len(c.coef) - 1; i >= 0; i-- {
		sumEven = sumEven*x2 + c.coef[i][0]
		sumOdd = sumOdd*x2 + c.coef[i][1]
	}
	sum := sumEven + x*sumOdd
	if c.odd {
		return 0.5 * (1 - u*sum)
	}
	return (math.Acos(u) - u*math.Sqrt(x)*sum) / math.Pi
}

// remTerms bounds the remainder's terms: each is below x <= ½ times the one
// before, so the 56th adds less than 2^-54 of the sum.
const remTerms = 56

// remainder is the cap fraction at cosine u in (0, 1) and x = sin² phi <= ½
// as the series' remainder: u/2·Σ_{j>=(d+1)/2} C(2j,j)/4^j·x^j for odd d,
// u·sqrt(x)/pi·Σ_{i>=d/2} 2^{2i}(i!)²/(2i+1)!·x^i for even d.
func (c *capSeries) remainder(u, x float64) float64 {
	xp := powInt(x, (c.d+1)/2) // the first power of x past the series
	var sum float64
	for _, k := range c.rem {
		t := k * xp
		if t <= sum*0x1p-54 {
			break
		}
		sum += t
		xp *= x
	}
	if c.odd {
		return 0.5 * u * sum
	}
	return u * math.Sqrt(x) * sum / math.Pi
}

// intersect is IntersectFraction at the series' dimension, for arguments
// already checked.
func (c *capSeries) intersect(r, eps, b float64) float64 {
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
		return powInt(eps/r, c.d)
	}
	// Proper lens: the intersection is the sum of two caps (Eq 6). The
	// intersection hyperplane sits at distance x from the data centroid
	// along the center line (cosine rule, Eq 7), which gives the cosines of
	// the data-sphere cap, x/r, and of the query-sphere cap, (b-x)/eps.
	x := (b*b + r*r - eps*eps) / (2 * b)
	uq := (b - x) / eps
	scale := powInt(eps/r, c.d)
	var q float64
	if scale <= math.MaxFloat64 {
		q = c.frac(uq)
	}
	if q < 0x1p-900 && scale > 1 {
		// The query cap lies inside the data sphere, and the ratio is past
		// the float64 range or the cap it scales is near or below the
		// smallest normal float64: take their product in logarithms.
		return clamp(c.frac(x/r)+c.tinyCapTimes(uq, float64(c.d)*math.Log(eps/r)), 0, 1)
	}
	return clamp(c.frac(x/r)+q*scale, 0, 1)
}

// tinyCapTimes returns F(u)·e^logScale for a cap fraction F(u) too small for
// a float64, from the logarithm of the beta form ½·I_x(a, ½) — the branch of
// regIncBetaPre a small x takes. A cap that is not small saturates to 1.
func (c *capSeries) tinyCapTimes(u, logScale float64) float64 {
	if u >= 1 {
		return 0
	}
	x := (1 - u) * (1 + u)
	if u <= 0 || x >= (c.a+1)/(c.a+2.5) {
		return 1
	}
	regIncBetaEvals.Add(1)
	return math.Exp(c.lg + c.a*math.Log(x) + 0.5*math.Log1p(-x) + math.Log(betacf(c.a, 0.5, x)/(2*c.a)) + logScale)
}

// powInt returns x^n for n >= 0 by repeated squaring.
func powInt(x float64, n int) float64 {
	p := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p
}

// IntersectFraction returns Vol(data ∩ query) / Vol(data), the fraction of a
// data-cluster sphere of radius r covered by a query sphere of radius eps
// whose center is at distance b from the cluster centroid, in dimension d
// (paper Eq 6–7 with the containment cases made explicit).
//
// A zero-radius cluster is treated as a point mass: fraction 1 if it lies
// within the query sphere, else 0. A zero-radius query covers zero volume.
func IntersectFraction(d int, r, eps, b float64) float64 {
	if d < 1 {
		panic("geometry: IntersectFraction requires d >= 1")
	}
	if r < 0 || eps < 0 || b < 0 {
		panic("geometry: negative radius or distance")
	}
	return seriesFor(d).intersect(r, eps, b)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SphereAt describes a cluster sphere as seen from a query point: its
// centroid distance, radius, and item count. It is the input to the
// expected-count model of Eq 8.
type SphereAt struct {
	Dist   float64 // distance from the query center to the cluster centroid
	Radius float64 // cluster sphere radius
	Items  int     // number of data items the cluster summarizes
}

// ExpectedCount evaluates Eq 8: the number of items a range query of radius
// eps is expected to retrieve, summing each reachable cluster's covered
// volume fraction times its item count.
func ExpectedCount(d int, eps float64, spheres []SphereAt) float64 {
	if eps < 0 {
		panic("geometry: negative radius or distance")
	}
	checkSpheres(spheres)
	return expectedCount(seriesFor(d), eps, spheres)
}

// expectedCount is ExpectedCount over checked spheres. SolveEpsForCount
// iterates on it too, so the count a caller reads off ExpectedCount is the
// solver's, bit for bit.
func expectedCount(c *capSeries, eps float64, spheres []SphereAt) float64 {
	var k float64
	for _, s := range spheres {
		k += c.intersect(s.Radius, eps, s.Dist) * float64(s.Items)
	}
	return k
}

func checkSpheres(spheres []SphereAt) {
	for _, s := range spheres {
		if s.Radius < 0 || s.Dist < 0 {
			panic("geometry: negative radius or distance")
		}
	}
}

// SolveEpsForCount inverts Eq 8: it returns the smallest query radius eps
// whose expected retrieved-item count reaches k. The function is
// monotonically non-decreasing in eps and bracketed by construction, so the
// root is found with an Illinois-damped secant/bisection hybrid — one Eq 8
// evaluation per step, against the three (value plus centered numeric
// derivative) a Newton iteration spends. The stopping tolerances are the
// Newton reference's; solveEpsReference agreement is covered by
// TestPropSolverMatchesReference.
//
// If k meets or exceeds the total item mass, the radius that covers every
// sphere entirely is returned. If the sphere list is empty or k <= 0, zero
// is returned.
func SolveEpsForCount(d int, k float64, spheres []SphereAt) float64 {
	if len(spheres) == 0 || k <= 0 {
		return 0
	}
	checkSpheres(spheres)
	c := seriesFor(d)
	return solveEps(spheres, k, func(eps float64) float64 { return expectedCount(c, eps, spheres) })
}

// solveEps is SolveEpsForCount with Eq 8 evaluated by expected, which the
// benchmarks also hand the frozen beta form.
func solveEps(spheres []SphereAt, k float64, expected func(eps float64) float64) float64 {
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
	// Bracket endpoints with known signs: Expected(0)-k = -k < 0 and
	// Expected(hi)-k = total-k > 0 (at hi every sphere is fully covered).
	lo, flo := 0.0, -k
	fhi := total - k
	eps := hi / 2
	side := 0
	const iters = 100
	for i := 0; i < iters; i++ {
		fv := expected(eps) - k
		if math.Abs(fv) < 1e-9*math.Max(1, k) || hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
		if fv > 0 {
			hi, fhi = eps, fv
			if side == 1 {
				// Illinois damping: the opposite endpoint is stale, halve
				// its weight so the secant cannot stagnate on one side.
				flo *= 0.5
			}
			side = 1
		} else {
			lo, flo = eps, fv
			if side == -1 {
				fhi *= 0.5
			}
			side = -1
		}
		next := lo - flo*(hi-lo)/(fhi-flo)
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2 // bisection fallback
		}
		eps = next
	}
	return eps
}

// regIncBetaEvals counts continued-fraction RegIncBeta evaluations — the
// expensive path the cap series leaves only to tiny caps wider than 45° (in
// 14 or more dimensions) and to scaled caps below the float64 range. The
// counter is atomic benchmark instrumentation (see RegIncBetaEvals); its cost is noise next to
// the Lentz iteration it counts.
var regIncBetaEvals atomic.Int64

// RegIncBetaEvals returns the cumulative number of continued-fraction
// RegIncBeta evaluations performed by this process. Benchmarks and the
// `kernels` experiment difference it around a workload to report
// evaluations per solve.
func RegIncBetaEvals() int64 { return regIncBetaEvals.Load() }

// regIncBetaPre returns the regularized incomplete beta function I_x(a, b),
// computed by the standard continued-fraction expansion (Lentz's method),
// given the x-independent lgamma prefactor lgamma(a+b) - lgamma(a) -
// lgamma(b) (a capSeries keeps its dimension's).
func regIncBetaPre(a, b, x, lg float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	regIncBetaEvals.Add(1)
	logBt := lg + a*math.Log(x) + b*math.Log1p(-x)
	bt := math.Exp(logBt)
	if x < (a+1)/(a+b+2) {
		return bt * betacf(a, b, x) / a
	}
	return 1 - bt*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// (Numerical Recipes §6.4, modified Lentz).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		epsTol  = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsTol {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
