package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBallVolume(t *testing.T) {
	cases := []struct {
		d    int
		r    float64
		want float64
	}{
		{1, 1, 2},               // interval length
		{2, 1, math.Pi},         // disk area
		{3, 1, 4 * math.Pi / 3}, // ball volume
		{2, 2, 4 * math.Pi},     // scaling r^d
		{4, 1, math.Pi * math.Pi / 2},
	}
	for _, tc := range cases {
		if got := BallVolume(tc.d, tc.r); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("BallVolume(%d,%v) = %v, want %v", tc.d, tc.r, got, tc.want)
		}
	}
}

func TestCapFractionEndpoints(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 7, 16, 64} {
		if got := CapFraction(d, 0); got != 0 {
			t.Errorf("d=%d: CapFraction(0) = %v", d, got)
		}
		if got := CapFraction(d, math.Pi); got != 1 {
			t.Errorf("d=%d: CapFraction(pi) = %v", d, got)
		}
		if got := CapFraction(d, math.Pi/2); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("d=%d: CapFraction(pi/2) = %v, want 0.5", d, got)
		}
	}
}

func TestCapFraction1D(t *testing.T) {
	// In R^1 the ball is [-r, r]; a cap with colatitude phi is the segment
	// beyond r*cos(phi), of length r(1-cos phi), fraction (1-cos phi)/2.
	for _, phi := range []float64{0.1, 0.7, 1.2, 2.0, 3.0} {
		want := (1 - math.Cos(phi)) / 2
		if got := CapFraction(1, phi); math.Abs(got-want) > 1e-12 {
			t.Errorf("CapFraction(1, %v) = %v, want %v", phi, got, want)
		}
	}
}

func TestCapFraction2DClosedForm(t *testing.T) {
	// Circular segment area fraction: (phi - sin phi cos phi)/pi.
	for _, phi := range []float64{0.2, 0.9, math.Pi / 3, 2.5} {
		want := (phi - math.Sin(phi)*math.Cos(phi)) / math.Pi
		if got := CapFraction(2, phi); math.Abs(got-want) > 1e-12 {
			t.Errorf("CapFraction(2, %v) = %v, want %v", phi, got, want)
		}
	}
}

func TestCapFraction3DClosedForm(t *testing.T) {
	// Spherical cap of height h = r(1-cos phi): V = pi h^2 (3r - h)/3,
	// ball V = 4 pi r^3/3, r = 1.
	for _, phi := range []float64{0.3, 1.0, 1.5, 2.2} {
		h := 1 - math.Cos(phi)
		want := h * h * (3 - h) / 4
		if got := CapFraction(3, phi); math.Abs(got-want) > 1e-12 {
			t.Errorf("CapFraction(3, %v) = %v, want %v", phi, got, want)
		}
	}
}

// The paper's Eq 5 series must agree with the incomplete-beta form for every
// even dimension — this validates our implementation of the published formula.
func TestPaperSeriesMatchesBetaForm(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8, 16, 32, 64, 256} {
		for _, alpha := range []float64{0.05, 0.3, 0.8, math.Pi / 2, 2.0, 3.0} {
			series := CapFractionPaperSeries(d, alpha)
			beta := CapFraction(d, alpha)
			if math.Abs(series-beta) > 1e-9 {
				t.Errorf("d=%d alpha=%v: series %v vs beta %v", d, alpha, series, beta)
			}
		}
	}
}

func TestPaperSeriesPanicsOnOddD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd d")
		}
	}()
	CapFractionPaperSeries(3, 1)
}

func TestCapFractionMonotone(t *testing.T) {
	for _, d := range []int{2, 5, 32} {
		prev := -1.0
		for phi := 0.0; phi <= math.Pi; phi += 0.01 {
			got := CapFraction(d, phi)
			if got < prev-1e-12 {
				t.Fatalf("d=%d: CapFraction not monotone at phi=%v", d, phi)
			}
			prev = got
		}
	}
}

// Monte Carlo cross-check of CapFraction in low dimensions.
func TestCapFractionMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	for _, d := range []int{2, 3, 4} {
		for _, phi := range []float64{0.6, 1.2, 2.1} {
			// Cap: points x in unit ball with x_0 >= cos(phi).
			threshold := math.Cos(phi)
			inside, inCap := 0, 0
			for i := 0; i < n; i++ {
				x := make([]float64, d)
				norm2 := 0.0
				for j := range x {
					x[j] = rng.Float64()*2 - 1
					norm2 += x[j] * x[j]
				}
				if norm2 > 1 {
					continue
				}
				inside++
				if x[0] >= threshold {
					inCap++
				}
			}
			got := float64(inCap) / float64(inside)
			want := CapFraction(d, phi)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("d=%d phi=%v: MC %v vs analytic %v", d, phi, got, want)
			}
		}
	}
}

func TestIntersectFractionCases(t *testing.T) {
	cases := []struct {
		name            string
		d               int
		r, eps, b, want float64
	}{
		{"disjoint", 2, 1, 1, 3, 0},
		{"touching", 2, 1, 1, 2, 0},
		{"data inside query", 3, 1, 5, 1, 1},
		{"identical spheres", 2, 1, 1, 0, 1},
		{"query inside data d2", 2, 2, 1, 0, 0.25},    // (1/2)^2
		{"query inside data d3", 3, 2, 1, 0.5, 0.125}, // (1/2)^3
		{"point cluster hit", 4, 0, 1, 0.5, 1},
		{"point cluster miss", 4, 0, 1, 2, 0},
		{"zero query", 3, 1, 0, 0.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IntersectFraction(tc.d, tc.r, tc.eps, tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIntersectFractionHalfOverlap2D(t *testing.T) {
	// Two unit circles at distance b: standard lens-area formula.
	r, eps := 1.0, 1.0
	for _, b := range []float64{0.5, 1.0, 1.5} {
		lens := 2*r*r*math.Acos(b/(2*r)) - b/2*math.Sqrt(4*r*r-b*b)
		want := lens / (math.Pi * r * r)
		if got := IntersectFraction(2, r, eps, b); math.Abs(got-want) > 1e-9 {
			t.Errorf("b=%v: got %v, want %v", b, got, want)
		}
	}
}

// Monte Carlo cross-check of the lens fraction in 3-D with unequal radii.
func TestIntersectFractionMonteCarlo3D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r, eps, b := 1.0, 0.8, 0.9
	const n = 300000
	inside, inBoth := 0, 0
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		n2 := x[0]*x[0] + x[1]*x[1] + x[2]*x[2]
		if n2 > r*r {
			continue
		}
		inside++
		dx := x[0] - b
		if dx*dx+x[1]*x[1]+x[2]*x[2] <= eps*eps {
			inBoth++
		}
	}
	got := float64(inBoth) / float64(inside)
	want := IntersectFraction(3, r, eps, b)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("MC %v vs analytic %v", got, want)
	}
}

// Property: the intersection fraction is within [0,1] and monotone in eps.
func TestPropIntersectFractionMonotoneInEps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(16)
		r := rng.Float64()*2 + 0.01
		b := rng.Float64() * 3
		prev := 0.0
		for eps := 0.0; eps <= 4; eps += 0.05 {
			got := IntersectFraction(d, r, eps, b)
			if got < prev-1e-9 || got < 0 || got > 1 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExpectedCount(t *testing.T) {
	spheres := []SphereAt{
		{Dist: 0, Radius: 1, Items: 100}, // fully covered by eps >= 1
		{Dist: 10, Radius: 1, Items: 50}, // untouched by small eps
	}
	if got := ExpectedCount(3, 1.0, spheres); math.Abs(got-100) > 1e-9 {
		t.Errorf("ExpectedCount = %v, want 100", got)
	}
	if got := ExpectedCount(3, 12, spheres); math.Abs(got-150) > 1e-9 {
		t.Errorf("ExpectedCount = %v, want 150", got)
	}
}

func TestSolveEpsForCount(t *testing.T) {
	spheres := []SphereAt{
		{Dist: 0, Radius: 1, Items: 100},
		{Dist: 5, Radius: 1, Items: 100},
	}
	d := 3
	for _, k := range []float64{10, 50, 99, 150} {
		eps := SolveEpsForCount(d, k, spheres)
		got := ExpectedCount(d, eps, spheres)
		if math.Abs(got-k) > 0.01*k {
			t.Errorf("k=%v: solved eps=%v yields count %v", k, eps, got)
		}
	}
}

func TestSolveEpsForCountEdges(t *testing.T) {
	if got := SolveEpsForCount(3, 5, nil); got != 0 {
		t.Errorf("empty spheres: got %v, want 0", got)
	}
	spheres := []SphereAt{{Dist: 2, Radius: 1, Items: 10}}
	if got := SolveEpsForCount(3, 0, spheres); got != 0 {
		t.Errorf("k=0: got %v, want 0", got)
	}
	// k beyond total mass: radius must cover everything.
	eps := SolveEpsForCount(3, 100, spheres)
	if eps < 3 {
		t.Errorf("k>total: eps=%v should cover dist+radius=3", eps)
	}
}

// Property: the solver's output always reproduces k within tolerance when k
// is attainable (0 < k < total items).
func TestPropSolverInvertsExpectedCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		spheres := make([]SphereAt, n)
		total := 0
		for i := range spheres {
			items := 1 + rng.Intn(100)
			total += items
			spheres[i] = SphereAt{
				Dist:   rng.Float64() * 5,
				Radius: rng.Float64() * 2,
				Items:  items,
			}
		}
		k := rng.Float64() * float64(total) * 0.9
		if k <= 0 {
			return true
		}
		eps := SolveEpsForCount(d, k, spheres)
		got := ExpectedCount(d, eps, spheres)
		return math.Abs(got-k) <= 0.02*float64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the optimized Illinois solver agrees with the retained Newton
// reference to 1e-9 across random sphere sets, dimensions and targets —
// satellite (c) of the kernel-speedup PR.
func TestPropSolverMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(16)
		n := 1 + rng.Intn(60)
		spheres := RandomSpheres(n, rng)
		if seed%5 == 0 {
			// Exercise point masses and duplicate geometry too.
			spheres[0].Radius = 0
			if n > 1 {
				spheres[1] = spheres[0]
			}
		}
		total := 0
		hi := 0.0
		for _, s := range spheres {
			total += s.Items
			if reach := s.Dist + s.Radius; reach > hi {
				hi = reach
			}
		}
		for _, frac := range []float64{0.01, 0.25, 0.5, 0.9, 1.5} {
			k := frac * float64(total)
			ref := solveEpsReference(d, k, spheres)
			opt := SolveEpsForCount(d, k, spheres)
			if err := solutionsAgree(d, k, hi, ref, opt, spheres); err != nil {
				t.Errorf("seed=%d d=%d n=%d k=%v: %v", seed, d, n, k, err)
			}
		}
	}
}

// The paper's Eq 5 series and the incomplete-beta form must agree for every
// even dimension up to 512, not just a sampled subset — satellite (c).
func TestCapFractionPaperSeriesAllEvenD(t *testing.T) {
	for d := 2; d <= 512; d += 2 {
		for _, alpha := range []float64{0.05, 0.5, 1.0, math.Pi / 2, 2.2, 3.0} {
			series := CapFractionPaperSeries(d, alpha)
			beta := CapFraction(d, alpha)
			if math.Abs(series-beta) > 1e-9 {
				t.Errorf("d=%d alpha=%v: series %v vs beta %v", d, alpha, series, beta)
			}
		}
	}
}

func TestRegIncBetaKnown(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(1, b) = 1-(1-x)^b.
	if got := RegIncBeta(1, 3, 0.25); math.Abs(got-(1-math.Pow(0.75, 3))) > 1e-12 {
		t.Errorf("I_0.25(1,3) = %v", got)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := RegIncBeta(2.5, 1.5, 0.3) + RegIncBeta(1.5, 2.5, 0.7); math.Abs(got-1) > 1e-12 {
		t.Errorf("symmetry violated: %v", got)
	}
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Error("endpoints wrong")
	}
}

func TestIntersectFractionPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IntersectFraction(0, 1, 1, 1) },
		func() { IntersectFraction(2, -1, 1, 1) },
		func() { CapFraction(0, 1) },
		func() { RegIncBeta(0, 1, 0.5) },
		func() { BallVolume(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkIntersectFraction256D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IntersectFraction(256, 1.0, 0.9, 1.2)
	}
}

// BenchmarkSolveEps compares the optimized Illinois Eq 8 solver against the
// retained Newton reference on the levelEps workload shape (50 spheres,
// d=8, k=100). The betaevals/op metric counts continued-fraction RegIncBeta
// evaluations — the acceptance criterion is >= 3x fewer on the optimized
// path.
func BenchmarkSolveEps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	spheres := RandomSpheres(50, rng)
	run := func(b *testing.B, solve func(int, float64, []SphereAt) float64) {
		b.ReportAllocs()
		evals0 := RegIncBetaEvals()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solve(8, 100, spheres)
		}
		b.StopTimer()
		b.ReportMetric(float64(RegIncBetaEvals()-evals0)/float64(b.N), "betaevals/op")
	}
	b.Run("opt", func(b *testing.B) { run(b, SolveEpsForCount) })
	b.Run("ref", func(b *testing.B) { run(b, solveEpsReference) })
}
