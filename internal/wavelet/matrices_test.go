package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64, signed zeros told
// apart. Any two NaNs count as the same: which operand's payload the sum of
// two NaNs carries is up to the operand order the compiler picks.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameMatrices reports the first coefficient of got that is not the same
// float64 (sameBits) as the frozen pair's,
// subspaceMatrixRef(decomposeAllRef(xs, conv), l), for every l below levels.
func sameMatrices(xs [][]float64, levels int, conv Convention, got [][][]float64) error {
	if len(got) != levels {
		return fmt.Errorf("%d levels, want %d", len(got), levels)
	}
	decs := decomposeAllRef(xs, conv)
	for l := 0; l < levels; l++ {
		want := subspaceMatrixRef(decs, l)
		if len(got[l]) != len(want) {
			return fmt.Errorf("level %d: %d rows, want %d", l, len(got[l]), len(want))
		}
		for r := range want {
			if len(got[l][r]) != len(want[r]) {
				return fmt.Errorf("level %d row %d: %d coefficients, want %d", l, r, len(got[l][r]), len(want[r]))
			}
			for j, w := range want[r] {
				if g := got[l][r][j]; !sameBits(g, w) {
					return fmt.Errorf("level %d row %d coefficient %d: %v (%#x), want %v (%#x)",
						l, r, j, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
	return nil
}

// specialRows are rows of length d whose coefficients meet the edges of
// float arithmetic: signed zeros (a +0 sum of -0 terms), NaN, infinities
// that cancel to NaN, magnitudes that overflow a sum, and subnormals.
func specialRows(d int) [][]float64 {
	vals := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324, 1, -1}
	var rows [][]float64
	for off := range vals {
		row := make([]float64, d)
		for j := range row {
			row[j] = vals[(off+j*(off+1))%len(vals)]
		}
		rows = append(rows, row)
	}
	negZero := make([]float64, d)
	for j := range negZero {
		negZero[j] = math.Copysign(0, -1)
	}
	return append(rows, negZero)
}

// TestSubspaceMatricesMatchReference checks SubspaceMatrices against the
// frozen DecomposeAll + SubspaceMatrix pair, float bit for float bit, for
// every convention, every power-of-two dim up to 512 and every levels count
// the dim has; the live Decompose is held to the frozen one alongside.
func TestSubspaceMatricesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, conv := range []Convention{Averaging, Orthonormal, Daubechies4} {
		for d := 1; d <= 512; d *= 2 {
			xs := specialRows(d)
			for i := 0; i < 7; i++ {
				x := randVec(rng, d)
				for j := range x {
					x[j] *= math.Pow(10, float64(rng.Intn(13)-6))
				}
				xs = append(xs, x)
			}
			for levels := 0; levels <= NumSubspaces(d); levels++ {
				if err := sameMatrices(xs, levels, conv, SubspaceMatrices(xs, levels, conv)); err != nil {
					t.Fatalf("%v d=%d levels=%d: %v", conv, d, levels, err)
				}
			}
			for r, x := range xs {
				got, want := Decompose(x, conv), decomposeRef(x, conv)
				for s := 0; s < want.NumSubspaces(); s++ {
					for j, w := range want.Subspace(s) {
						if g := got.Subspace(s)[j]; !sameBits(g, w) {
							t.Fatalf("%v d=%d row %d: Decompose subspace %d coefficient %d = %v, frozen %v", conv, d, r, s, j, g, w)
						}
					}
				}
			}
		}
	}
	if got := SubspaceMatrices(nil, 3, Averaging); len(got) != 3 || len(got[2]) != 0 {
		t.Errorf("no rows: got %v, want 3 empty levels", got)
	}
}

// BenchmarkSubspaceMatrices times the coarse transform against the frozen
// pair it replaced on the publish path's shape: 500 items of 128-d, 4
// levels, the paper's averaging convention.
func BenchmarkSubspaceMatrices(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 500)
	for i := range xs {
		xs[i] = randVec(rng, 128)
	}
	const levels = 4
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			SubspaceMatrices(xs, levels, Averaging)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			decs := decomposeAllRef(xs, Averaging)
			for l := 0; l < levels; l++ {
				subspaceMatrixRef(decs, l)
			}
		}
	})
}
