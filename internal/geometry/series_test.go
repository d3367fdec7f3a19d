package geometry

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

// Every odd dimension's series must reproduce ½·I_{sin²phi}((d+1)/2, ½) —
// the twin of TestCapFractionPaperSeriesAllEvenD for the odd-d form.
func TestCapFractionSeriesAllOddD(t *testing.T) { checkSeriesAgainstBeta(t, 1) }

// CapFraction at even d is the cosine form of Eq 5, which
// TestCapFractionPaperSeriesAllEvenD holds to the verbatim angle form; this
// holds it to the beta form as well.
func TestCapFractionSeriesAllEvenD(t *testing.T) { checkSeriesAgainstBeta(t, 2) }

// checkSeriesAgainstBeta compares CapFraction with the frozen beta form at
// every d from first to 512 in steps of two.
func checkSeriesAgainstBeta(t *testing.T, first int) {
	for d := first; d <= 512; d += 2 {
		for _, phi := range []float64{1e-6, 0.05, 0.5, 1.0, math.Pi / 2, 2.2, 3.0, math.Pi - 1e-6} {
			if got, want := CapFraction(d, phi), capFractionReference(d, phi); math.Abs(got-want) > 1e-9 {
				t.Errorf("d=%d phi=%v: series %v vs beta %v", d, phi, got, want)
			}
		}
	}
}

// The Eq 8 count a caller reads off ExpectedCount and the one the solver
// iterates on are the same number, bit for bit, in every case of the
// intersection: point masses, disjoint, either sphere inside the other, and
// lenses with the query cap scaled up or down. ExpectedCount is also the sum
// of the spheres' IntersectFraction shares, and SolveEpsForCount stops where
// an Illinois iteration over ExpectedCount itself stops.
func TestExpectedCountMatchesSolver(t *testing.T) {
	spheres := []SphereAt{
		{Dist: 0.5, Radius: 0, Items: 3},         // point mass, hit at eps >= 0.5
		{Dist: 2, Radius: 0, Items: 5},           // point mass, missed below eps 2
		{Dist: 3, Radius: 1, Items: 7},           // disjoint below eps 2
		{Dist: 0.2, Radius: 0.5, Items: 11},      // inside the query from eps 0.7
		{Dist: 0.5, Radius: 3, Items: 13},        // holds the query below eps 2.5
		{Dist: 1.2, Radius: 0.7, Items: 17},      // lens
		{Dist: 1.0005, Radius: 0.001, Items: 19}, // lens, query cap scaled by (eps/r)^d
		{Dist: 2.9999, Radius: 2, Items: 23},     // lens, thin query cap
	}
	for _, d := range []int{1, 2, 3, 4, 8, 64} {
		c := seriesFor(d)
		for _, eps := range []float64{0, 0.1, 0.5, 0.7, 1, 1.0004, 1.2, 2, 2.5, 5} {
			got, solver := ExpectedCount(d, eps, spheres), expectedCount(c, eps, spheres)
			var sum float64
			for _, s := range spheres {
				sum += IntersectFraction(d, s.Radius, eps, s.Dist) * float64(s.Items)
			}
			if math.Float64bits(got) != math.Float64bits(solver) || math.Float64bits(sum) != math.Float64bits(got) {
				t.Errorf("d=%d eps=%v: ExpectedCount %v, solver %v, summed fractions %v", d, eps, got, solver, sum)
			}
		}
		for _, k := range []float64{1, 10, 40, 90} {
			want := solveEps(spheres, k, func(eps float64) float64 { return ExpectedCount(d, eps, spheres) })
			if got := SolveEpsForCount(d, k, spheres); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("d=%d k=%v: SolveEpsForCount %v, over ExpectedCount %v", d, k, got, want)
			}
		}
	}
}

// Goroutines asking for dimensions in different orders, each of them new to
// the memo, all get the one series of each dimension, whatever d the memo
// has grown to (run it with -race).
func TestSeriesForConcurrent(t *testing.T) {
	const n = 4
	got := make([][]*capSeries, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*capSeries, 499) // a prime count
			for i := range got[g] {
				d := 1500 + (i*(2*g+1)+g*7)%len(got[g]) // a permutation of 1500..1998
				got[g][d-1500] = seriesFor(d)
			}
		}()
	}
	wg.Wait()
	for i := range got[0] {
		d := 1500 + i
		for g := range n {
			if c := got[g][i]; c == nil || c.d != d || c != seriesFor(d) {
				t.Fatalf("goroutine %d, d=%d: a series of d=%v, not the memo's", g, d, c)
			}
		}
	}
}

// fuzzRadius maps a fuzz-chosen float to a radius or distance the fuzz
// explores: zero, or a value in [1e-6, 1e6].
func fuzzRadius(v float64) (float64, bool) {
	v = math.Abs(v)
	return v, v == 0 || (v >= 1e-6 && v <= 1e6)
}

// representable reports whether the lens term's volume ratio (eps/r)^d fits
// a float64 with room to spare. Past it the frozen beta form overflows (NaN
// or 1) where the series takes the product in logarithms.
func representable(d int, r, eps float64) bool {
	return r == 0 || eps == 0 || float64(d)*math.Log(eps/r) < 700
}

// A lens whose volume ratio (eps/r)^d overflows a float64 still has a
// fraction in [0, 1] that grows with eps (the beta form answered NaN). Where
// the data sphere is that much smaller than the query sphere, the query's
// boundary is flat at its scale, so the fraction is the data sphere's cap
// beyond the boundary. The logarithmic product agrees with the direct one
// where both are finite.
func TestIntersectFractionOverflowingRatio(t *testing.T) {
	for _, c := range []struct {
		d         int
		r, eps, b float64
	}{{512, 0.01, 1, 1.005}, {64, 1e-6, 1, 1 + 0.5e-6}, {32, 1e-10, 1, 1 + 0.3e-10}} {
		prev := 0.0
		for _, eps := range []float64{c.eps, c.eps * (1 + 1e-12), c.eps * (1 + 1e-9), c.eps * (1 + 1e-3)} {
			got := IntersectFraction(c.d, c.r, eps, c.b)
			if !(got >= prev-1e-12 && got >= 0 && got <= 1) {
				t.Errorf("d=%d r=%v eps=%v b=%v: %v after %v", c.d, c.r, eps, c.b, got, prev)
			}
			prev = got
		}
		got, flat := IntersectFraction(c.d, c.r, c.eps, c.b), capFractionReference(c.d, math.Acos((c.b-c.eps)/c.r))
		if math.Abs(got-flat) > 1e-4*flat+1e-15 {
			t.Errorf("d=%d r=%v eps=%v b=%v: %v, the cap beyond a flat boundary %v", c.d, c.r, c.eps, c.b, got, flat)
		}
	}
	for _, d := range []int{1, 4, 64, 511} {
		c := seriesFor(d)
		for _, u := range []float64{1 - 1e-12, 1 - 1e-6, 0.999, 0.99} {
			f := c.frac(u)
			logScale := -math.Log(f) - 1 // the product is 1/e
			if got := c.tinyCapTimes(u, logScale); math.Abs(got-f*math.Exp(logScale)) > 1e-12 {
				t.Errorf("d=%d u=%v: logarithmic product %v, direct %v", d, u, got, f*math.Exp(logScale))
			}
		}
	}
}

// A shallow lens covers a tiny share of the data sphere, yet a positive one:
// Eq 1 drops a cluster whose fraction is <= 0, so a proper lens that came
// out 0 would be a false dismissal. Its caps are differences of near-equal
// series terms, so the lens must be relatively accurate, as the beta form is.
func TestIntersectFractionShallowLens(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 8, 16, 64, 512} {
		for _, c := range []struct{ r, eps, b float64 }{
			{1, 1, 1.9}, {1, 1, 1.99}, {1, 1, 1.999}, {1, 0.5, 1.49}, {0.5, 1, 1.49}, {1, 0.01, 1.0099},
		} {
			got, want := IntersectFraction(d, c.r, c.eps, c.b), intersectFractionReference(d, c.r, c.eps, c.b)
			if want > 0 && !(got > 0) || math.Abs(got-want) > 1e-6*want {
				t.Errorf("d=%d r=%v eps=%v b=%v: %v, beta form %v", d, c.r, c.eps, c.b, got, want)
			}
		}
	}
}

// A query cap scaled up by (eps/r)^d keeps its share of the lens when the
// cap alone is below the float64 range: in a 256-d shallow lens with
// eps/r = 5/3 the scaled query cap holds ~38 % of the lens at every depth,
// though at a depth of 0.003 the unscaled cap underflows to 0 (the beta form
// answered the data cap alone there).
func TestIntersectFractionScaledCapUnderflow(t *testing.T) {
	const d, r, eps = 256, 0.6, 1.0
	c := seriesFor(d)
	share := func(depth float64) float64 {
		b := r + eps - depth
		x := (b*b + r*r - eps*eps) / (2 * b)
		return 1 - c.frac(x/r)/IntersectFraction(d, r, eps, b)
	}
	if shallow, deep := share(0.003), share(0.01); math.Abs(shallow-deep) > 0.01 {
		t.Errorf("the scaled query cap's share of the lens: %v at depth 0.003, %v at depth 0.01", shallow, deep)
	}
}

// FuzzIntersectFraction checks the series evaluator against the frozen beta
// form at fuzz-chosen (d <= 512, r, eps, b): every result lies in [0, 1] and
// grows with eps to 1e-12, and where the volume ratio is representable it is
// within 1e-9 of the reference, and within 1e-6 of it relatively where the
// reference is below tinyCap (a proper lens stays positive) yet far enough
// above the smallest normal float64 that the reference's own scaled query cap
// was a normal number.
func FuzzIntersectFraction(f *testing.F) {
	f.Add(uint16(1), 1.0, 1.0, 3.0, 0.5)        // disjoint
	f.Add(uint16(3), 1.0, 5.0, 1.0, 0.5)        // data inside query
	f.Add(uint16(2), 2.0, 1.0, 0.0, 0.5)        // query inside data
	f.Add(uint16(3), 0.0, 1.0, 0.5, 0.5)        // point mass
	f.Add(uint16(1), 1.0, 0.8, 0.9, 0.01)       // lens
	f.Add(uint16(4), 0.7, 1.0, 1.2, 0.01)       // lens, reflected data cap
	f.Add(uint16(127), 1.0, 1.0, 1.5, 1e-3)     // lens, odd d
	f.Add(uint16(255), 1.0, 0.9, 1.2, 1e-3)     // lens, 256-d
	f.Add(uint16(3), 0.001, 1.0, 1.0005, 1e-4)  // lens, query cap scaled up 1e9
	f.Add(uint16(64), 2.0, 1.0, 2.9999, 1e-4)   // lens, thin query cap
	f.Add(uint16(511), 0.01, 1.0, 1.005, 1e-3)  // lens, (eps/r)^d past the float64 range
	f.Add(uint16(63), 1.0, 1.0, 1.9, 1e-3)      // shallow lens, two tiny caps
	f.Add(uint16(281), 19.2, 40.0, 58.857, 0.5) // scaled query cap below the normal range
	f.Fuzz(func(t *testing.T, dd uint16, r, eps, b, step float64) {
		d := 1 + int(dd)%512
		var ok [4]bool
		r, ok[0] = fuzzRadius(r)
		eps, ok[1] = fuzzRadius(eps)
		b, ok[2] = fuzzRadius(b)
		step, ok[3] = fuzzRadius(step)
		eps2 := eps + step
		if ok != [4]bool{true, true, true, true} {
			t.Skip()
		}
		got := IntersectFraction(d, r, eps, b)
		if !(got >= 0 && got <= 1) {
			t.Fatalf("d=%d r=%v eps=%v b=%v: %v outside [0, 1]", d, r, eps, b, got)
		}
		if want := intersectFractionReference(d, r, eps, b); representable(d, r, eps) &&
			(math.Abs(got-want) > 1e-9 || want < tinyCap && want >= 1e-290*math.Max(1, math.Pow(eps/r, float64(d))) &&
				math.Abs(got-want) > 1e-6*want) {
			t.Fatalf("d=%d r=%v eps=%v b=%v: series %v, beta form %v", d, r, eps, b, got, want)
		}
		if next := IntersectFraction(d, r, eps2, b); next < got-1e-12 {
			t.Fatalf("d=%d r=%v b=%v: %v at eps %v, %v at eps %v", d, r, b, got, eps, next, eps2)
		}
	})
}

var sinkFrac float64

// BenchmarkIntersectFraction times one lens at the subspace dimensions of a
// 4-level query, through the series and through the frozen beta form.
func BenchmarkIntersectFraction(b *testing.B) {
	for _, d := range []int{1, 2, 4} {
		for _, impl := range []struct {
			name string
			f    func(int, float64, float64, float64) float64
		}{{"new", IntersectFraction}, {"reference", intersectFractionReference}} {
			b.Run(impl.name+"/d="+strconv.Itoa(d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkFrac += impl.f(d, 1.0, 0.9, 1.2)
				}
			})
		}
	}
}
