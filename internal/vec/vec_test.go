package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist2(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if got := Dist2(a, b); got != 9 {
		t.Errorf("Dist2 = %v, want 9", got)
	}
	if got := Dist(a, b); got != 3 {
		t.Errorf("Dist = %v, want 3", got)
	}
}

func TestDistSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := randVec(rng, 16)
		b := randVec(rng, 16)
		if math.Abs(Dist(a, b)-Dist(b, a)) > 1e-12 {
			t.Fatalf("Dist not symmetric: %v vs %v", Dist(a, b), Dist(b, a))
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b, c := randVec(rng, 8), randVec(rng, 8), randVec(rng, 8)
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestDist2MismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist2([]float64{1}, []float64{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm2([]float64{3, 4}); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := []float64{1, 2, 3}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2}
	Add(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Errorf("Add result %v", a)
	}
	s := Sub([]float64{5, 5}, []float64{2, 3})
	if s[0] != 3 || s[1] != 2 {
		t.Errorf("Sub result %v", s)
	}
	Scale(a, 0.5)
	if a[0] != 2 || a[1] != 3 {
		t.Errorf("Scale result %v", a)
	}
	Zero(a)
	if a[0] != 0 || a[1] != 0 {
		t.Errorf("Zero result %v", a)
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float64{{0, 0}, {2, 4}})
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("Mean = %v", m)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Mean")
		}
	}()
	Mean(nil)
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([][]float64{{1, 5}, {3, 2}, {-1, 4}})
	if lo[0] != -1 || lo[1] != 2 {
		t.Errorf("lo = %v", lo)
	}
	if hi[0] != 3 || hi[1] != 5 {
		t.Errorf("hi = %v", hi)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual([]float64{1, 2}, []float64{1 + 1e-12, 2}, 1e-9) {
		t.Error("ApproxEqual should accept tiny diff")
	}
	if ApproxEqual([]float64{1}, []float64{1, 2}, 1) {
		t.Error("ApproxEqual should reject length mismatch")
	}
	if ApproxEqual([]float64{1}, []float64{2}, 0.5) {
		t.Error("ApproxEqual should reject large diff")
	}
}

// Property: Dist2 equals Norm2 of the difference.
func TestPropDist2IsNorm2OfDiff(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randVec(rng, 12), randVec(rng, 12)
		return math.Abs(Dist2(a, b)-Norm2(Sub(a, b))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |<a,b>| <= |a||b|.
func TestPropCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randVec(rng, 10), randVec(rng, 10)
		return math.Abs(Dot(a, b)) <= Norm(a)*Norm(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Dist2Capped must return the exact Dist2 value whenever the full distance is
// below the bound, and a value >= the bound (a lower bound on the distance)
// whenever it exits early — across lengths that exercise both the unrolled
// blocks and the scalar tail.
func TestPropDist2Capped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		full := Dist2(a, b)
		for _, bound := range []float64{0, full * 0.25, full, full * 4, math.Inf(1)} {
			got := Dist2Capped(a, b, bound)
			if full < bound && got != full {
				return false // below the bound: must be bit-identical
			}
			if got > full {
				return false // partial sums never exceed the full distance
			}
			if full >= bound && got < bound && got != full {
				return false // early exit must only happen at >= bound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDist2CappedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dist2Capped([]float64{1, 2}, []float64{1}, 10)
}

func TestCheck(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		v     []float64
		infOK bool
		ok    bool
	}{
		{[]float64{0, 1, -2}, false, true},
		{[]float64{0, 1}, true, false},
		{[]float64{0, nan, 1}, true, false},
		{[]float64{0, nan, 1}, false, false},
		{[]float64{inf, 0, 1}, true, true},
		{[]float64{0, 0, -inf}, true, true},
		{[]float64{inf, 0, 1}, false, false},
		{[]float64{0, 0, -inf}, false, false},
	} {
		if err := Check(tc.v, 3, tc.infOK); (err == nil) != tc.ok {
			t.Errorf("Check(%v, 3, infOK %v) = %v, want ok %v", tc.v, tc.infOK, err, tc.ok)
		}
	}
}
