package wavelet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyperm/internal/vec"
)

func TestIsPow2(t *testing.T) {
	for _, tc := range []struct {
		d    int
		want bool
	}{{1, true}, {2, true}, {3, false}, {4, true}, {0, false}, {-4, false}, {512, true}, {511, false}} {
		if got := IsPow2(tc.d); got != tc.want {
			t.Errorf("IsPow2(%d) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestLog2(t *testing.T) {
	for _, tc := range []struct{ d, want int }{{1, 0}, {2, 1}, {4, 2}, {512, 9}} {
		if got := Log2(tc.d); got != tc.want {
			t.Errorf("Log2(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Log2(3)
}

func TestSubspaceDims(t *testing.T) {
	// For d=8: subspaces A(1), D0(1), D1(2), D2(4) -> 4 subspaces.
	if got := NumSubspaces(8); got != 4 {
		t.Fatalf("NumSubspaces(8) = %d, want 4", got)
	}
	wantDims := []int{1, 1, 2, 4}
	for i, w := range wantDims {
		if got := SubspaceDim(i); got != w {
			t.Errorf("SubspaceDim(%d) = %d, want %d", i, got, w)
		}
	}
	// Total coefficients must equal the original dimensionality.
	total := 0
	for i := 0; i < NumSubspaces(512); i++ {
		total += SubspaceDim(i)
	}
	if total != 512 {
		t.Errorf("subspace dims sum to %d, want 512", total)
	}
}

func TestSubspaceName(t *testing.T) {
	if SubspaceName(0) != "A" || SubspaceName(1) != "D_0" || SubspaceName(3) != "D_2" {
		t.Error("unexpected subspace names")
	}
}

func TestDecomposeKnownValues(t *testing.T) {
	// Worked example with the paper's averaging convention, d=4.
	// x = (9, 7, 3, 5):
	//   step 1: approx (8, 4), detail D_1 = (1, -1)
	//   step 2: approx (6),    detail D_0 = (2)
	dec := Decompose([]float64{9, 7, 3, 5}, Averaging)
	if dec.Approx[0] != 6 {
		t.Errorf("A = %v, want 6", dec.Approx[0])
	}
	if dec.Details[0][0] != 2 {
		t.Errorf("D_0 = %v, want 2", dec.Details[0][0])
	}
	if dec.Details[1][0] != 1 || dec.Details[1][1] != -1 {
		t.Errorf("D_1 = %v, want [1 -1]", dec.Details[1])
	}
}

func TestDecomposePreservesInput(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	Decompose(x, Averaging)
	if x[0] != 1 || x[3] != 4 {
		t.Fatal("Decompose mutated its input")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, conv := range []Convention{Averaging, Orthonormal} {
		for _, d := range []int{1, 2, 4, 8, 64, 512} {
			x := randVec(rng, d)
			got := Decompose(x, conv).Reconstruct()
			if !vec.ApproxEqual(x, got, 1e-9) {
				t.Errorf("conv=%v d=%d: round trip failed", conv, d)
			}
		}
	}
}

func TestOrthonormalParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randVec(rng, 64)
	dec := Decompose(x, Orthonormal)
	var coeffNorm2 float64
	for s := 0; s < dec.NumSubspaces(); s++ {
		coeffNorm2 += vec.Norm2(dec.Subspace(s))
	}
	if math.Abs(coeffNorm2-vec.Norm2(x)) > 1e-9 {
		t.Errorf("Parseval violated: coeffs %v vs original %v", coeffNorm2, vec.Norm2(x))
	}
}

// Property: the weighted Parseval identity holds exactly for the averaging
// convention — Dist2 computed from coefficients equals the original distance.
func TestPropWeightedParsevalAveraging(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 << (1 + rng.Intn(7)) // 2..128
		x, y := randVec(rng, d), randVec(rng, d)
		dx, dy := Decompose(x, Averaging), Decompose(y, Averaging)
		want := vec.Dist2(x, y)
		got := Dist2(dx, dy)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Theorem 3.1 — any two points within distance r of each other in
// the original space are within r*RadiusScale in every subspace.
func TestPropTheorem31RadiusBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 << (2 + rng.Intn(6)) // 4..128
		x, y := randVec(rng, d), randVec(rng, d)
		r := vec.Dist(x, y)
		dx, dy := Decompose(x, Averaging), Decompose(y, Averaging)
		for s := 0; s < dx.NumSubspaces(); s++ {
			m := SubspaceDim(s)
			bound := r * RadiusScale(Averaging, d, m)
			got := vec.Dist(dx.Subspace(s), dy.Subspace(s))
			if got > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The Theorem 3.1 bound is tight: a vector aligned with the worst case
// reaches it. With the averaging convention and x = (1,1,...,1)/sqrt(d)
// scaled to radius r, the approximation coefficient is r/sqrt(d) at distance
// exactly r*sqrt(1/d) from the origin's approximation.
func TestTheorem31BoundTight(t *testing.T) {
	d := 16
	r := 3.0
	x := make([]float64, d)
	for i := range x {
		x[i] = r / math.Sqrt(float64(d))
	}
	origin := make([]float64, d)
	dx, do := Decompose(x, Averaging), Decompose(origin, Averaging)
	got := vec.Dist(dx.Subspace(0), do.Subspace(0))
	want := r * RadiusScale(Averaging, d, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("approximation distance %v, want tight bound %v", got, want)
	}
}

func TestRadiusScaleValues(t *testing.T) {
	// d=512: subspace of dim 1 scales by 1/sqrt(512).
	got := RadiusScale(Averaging, 512, 1)
	want := 1 / math.Sqrt(512)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("RadiusScale = %v, want %v", got, want)
	}
	if RadiusScale(Orthonormal, 512, 4) != 1 {
		t.Error("orthonormal radius scale should be 1")
	}
}

func TestDistanceWeight(t *testing.T) {
	if got := DistanceWeight(Averaging, 8, 2); got != 4 {
		t.Errorf("DistanceWeight = %v, want 4", got)
	}
	if got := DistanceWeight(Orthonormal, 8, 2); got != 1 {
		t.Errorf("orthonormal DistanceWeight = %v, want 1", got)
	}
}

func TestSubspaceOf(t *testing.T) {
	x := []float64{9, 7, 3, 5}
	if got := SubspaceOf(x, 0, Averaging)[0]; got != 6 {
		t.Errorf("SubspaceOf A = %v, want 6", got)
	}
}

func TestSubspaceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decompose([]float64{1, 2}, Averaging).Subspace(5)
}

func TestPadPow2(t *testing.T) {
	x := []float64{1, 2, 3}
	p := PadPow2(x)
	if len(p) != 4 || p[3] != 0 || p[0] != 1 {
		t.Errorf("PadPow2 = %v", p)
	}
	same := []float64{1, 2, 3, 4}
	if got := PadPow2(same); &got[0] != &same[0] {
		t.Error("PadPow2 should return power-of-two input unchanged")
	}
}

func TestSubspaceMatricesKnownValues(t *testing.T) {
	xs := [][]float64{{9, 7, 3, 5}, {1, 1, 1, 1}}
	m := SubspaceMatrices(xs, 3, Averaging)
	want := [][][]float64{{{6}, {1}}, {{2}, {0}}, {{1, -1}, {0, 0}}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("SubspaceMatrices = %v, want %v", m, want)
	}
	// Rows are carved from one array but bounded: an append to one row
	// cannot reach the next, and the input is left alone.
	m[0][0] = append(m[0][0], 99)
	m[1][0][0] = 42
	if m[0][1][0] != 1 || m[1][1][0] != 0 || m[2][0][0] != 1 {
		t.Errorf("a row write reached another row: %v", m)
	}
	if xs[0][0] != 9 || xs[1][3] != 1 {
		t.Error("SubspaceMatrices mutated its input")
	}
}

func TestSubspaceMatricesPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs     [][]float64
		levels int
	}{
		{"non-power-of-two", [][]float64{{1, 2, 3}}, 1},
		{"too many levels", [][]float64{{1, 2, 3, 4}}, 4},
		{"negative levels", [][]float64{{1, 2}}, -1},
		{"ragged rows", [][]float64{{1, 2}, {1, 2, 3, 4}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			SubspaceMatrices(tc.xs, tc.levels, Averaging)
		})
	}
}

func TestConventionString(t *testing.T) {
	if Averaging.String() != "averaging" || Orthonormal.String() != "orthonormal" {
		t.Error("unexpected convention strings")
	}
	if Convention(9).String() == "" {
		t.Error("unknown convention should still stringify")
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func BenchmarkDecompose512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randVec(rng, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(x, Averaging)
	}
}
