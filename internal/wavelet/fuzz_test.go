package wavelet

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecomposeReconstruct drives Decompose → Reconstruct with arbitrary
// vectors and checks the round trip under every convention: the inverse
// transform must recover the input within floating-point tolerance for any
// power-of-two dimension. This is the guarantee Theorems 3.1/4.1 rest on —
// the wavelet transform loses nothing, only reorganizes energy across
// subspaces. Run with `go test -fuzz=FuzzDecomposeReconstruct ./internal/wavelet`.
func FuzzDecomposeReconstruct(f *testing.F) {
	seed := func(xs ...float64) {
		buf := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf)
	}
	seed(1)
	seed(0, 0, 0, 0)
	seed(1, -2, 3, -4)
	seed(0.5, 0.25, 0.125, 0.0625, 1, 2, 4, 8)
	seed(1e9, -1e9, 1e-9, -1e-9, 0, 1, -1, 0.333, 2.5, -7, 42, 1e6, -3.14, 0.001, 99, -0.5)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode the byte stream into float64s, discarding values that make
		// the tolerance meaningless (NaN/Inf propagate; extreme magnitudes
		// overflow intermediate sums).
		var vals []float64
		for len(raw) >= 8 && len(vals) < 512 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
			raw = raw[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return
		}
		// Largest power-of-two prefix: Decompose requires pow-2 dims.
		dim := 1
		for dim*2 <= len(vals) {
			dim *= 2
		}
		x := vals[:dim]

		maxAbs := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		tol := 1e-9 * (1 + maxAbs)

		for _, conv := range []Convention{Averaging, Orthonormal, Daubechies4} {
			dec := Decompose(x, conv)
			if dec.Dim != dim {
				t.Fatalf("%v: Dim = %d, want %d", conv, dec.Dim, dim)
			}
			got := dec.Reconstruct()
			if len(got) != dim {
				t.Fatalf("%v: reconstructed length %d, want %d", conv, len(got), dim)
			}
			for i := range x {
				if d := math.Abs(got[i] - x[i]); d > tol || math.IsNaN(got[i]) {
					t.Fatalf("%v dim %d: coord %d round-trip error %g > %g (in %g, out %g)",
						conv, dim, i, d, tol, x[i], got[i])
				}
			}
		}
	})
}

// FuzzSubspaceMatrices holds SubspaceMatrices to the frozen DecomposeAll +
// SubspaceMatrix pair on fuzz-chosen dims (1 to 512), levels, conventions and
// values, NaN, signed zeros and infinities included: every coefficient must
// have the frozen pair's bits. Run with
// `go test -fuzz=FuzzSubspaceMatrices ./internal/wavelet`.
func FuzzSubspaceMatrices(f *testing.F) {
	floats := func(xs ...float64) []byte {
		buf := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		return buf
	}
	f.Add(uint8(2), uint8(3), uint8(0), floats(9, 7, 3, 5, 1, 1, 1, 1))
	f.Add(uint8(0), uint8(1), uint8(1), floats(math.Copysign(0, -1)))
	f.Add(uint8(3), uint8(4), uint8(2), floats(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308, 5e-324))
	f.Add(uint8(7), uint8(4), uint8(0), floats(0.25, -3, 17, 1e-9))
	f.Add(uint8(9), uint8(10), uint8(2), floats(1, 2, 3))
	f.Fuzz(func(t *testing.T, logDim, levels, conv uint8, raw []byte) {
		d := 1 << (logDim % 10)
		var vals []float64
		for ; len(raw) >= 8 && len(vals) < 4*512; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		n := 1 + len(vals)/d
		xs := make([][]float64, n)
		for r := range xs {
			xs[r] = make([]float64, d)
			for j := range xs[r] {
				if len(vals) > 0 {
					xs[r][j] = vals[(r*d+j)%len(vals)]
				}
			}
		}
		lv := int(levels) % (NumSubspaces(d) + 1)
		c := Convention(conv % 3)
		if err := sameMatrices(xs, lv, c, SubspaceMatrices(xs, lv, c)); err != nil {
			t.Fatalf("%v d=%d levels=%d rows=%d: %v", c, d, lv, n, err)
		}
	})
}
