// Package vec provides the small dense float64 vector kernel used throughout
// Hyper-M: distances, norms, and elementwise helpers.
//
// All functions treat their arguments as fixed-length vectors; mismatched
// lengths are programming errors and panic, matching the behaviour of the
// standard library's copy-style primitives rather than returning errors on
// every arithmetic call.
package vec

import (
	"fmt"
	"math"
)

// Dist2 returns the squared Euclidean (L2) distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean (L2) distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(Dist2(a, b)) }

// Dist2Capped returns the squared L2 distance between a and b with a
// partial-distance early exit: once the running sum reaches bound, the
// (partial) sum is returned immediately. Because squared terms are
// non-negative the partial sum lower-bounds the full distance, so any
// comparison of the form "distance < bound" is decided identically; and the
// terms are accumulated in exactly Dist2's order, so when the result is below
// bound it is bit-identical to Dist2(a, b). The check runs once per 8-element
// block to keep the inner loop tight.
func Dist2Capped(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x, y := a[i:i+8], b[i:i+8]
		d0 := x[0] - y[0]
		s += d0 * d0
		d1 := x[1] - y[1]
		s += d1 * d1
		d2 := x[2] - y[2]
		s += d2 * d2
		d3 := x[3] - y[3]
		s += d3 * d3
		d4 := x[4] - y[4]
		s += d4 * d4
		d5 := x[5] - y[5]
		s += d5 * d5
		d6 := x[6] - y[6]
		s += d6 * d6
		d7 := x[7] - y[7]
		s += d7 * d7
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Norm2 returns the squared L2 norm of a.
func Norm2(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}

// Norm returns the L2 norm of a.
func Norm(a []float64) float64 { return math.Sqrt(Norm2(a)) }

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Clone returns a fresh copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Add accumulates src into dst elementwise.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, av := range a {
		out[i] = av - b[i]
	}
	return out
}

// Scale multiplies every element of a by s in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}

// Zero sets every element of a to zero.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// Mean returns the arithmetic mean of the rows of xs (the centroid).
// It panics if xs is empty or rows have differing lengths.
func Mean(xs [][]float64) []float64 {
	if len(xs) == 0 {
		panic("vec: Mean of empty set")
	}
	out := make([]float64, len(xs[0]))
	for _, x := range xs {
		Add(out, x)
	}
	Scale(out, 1/float64(len(xs)))
	return out
}

// MinMax returns the per-dimension minimum and maximum over the rows of xs.
// It panics if xs is empty.
func MinMax(xs [][]float64) (lo, hi []float64) {
	if len(xs) == 0 {
		panic("vec: MinMax of empty set")
	}
	lo = Clone(xs[0])
	hi = Clone(xs[0])
	for _, x := range xs[1:] {
		for i, v := range x {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}

// ApproxEqual reports whether a and b are elementwise within tol.
func ApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if math.Abs(av-b[i]) > tol {
			return false
		}
	}
	return true
}

// Check refuses a vector that is not dim long or has a NaN coordinate, and
// one with a ±Inf coordinate unless infOK: the one test of what may enter the
// system as a query (infOK: a point at infinity is far from every item) or as
// an item (not: its wavelet keys would leave the unit torus). Callers prefix
// the error with what the vector is.
func Check(v []float64, dim int, infOK bool) error {
	if len(v) != dim {
		return fmt.Errorf("dim %d, want %d", len(v), dim)
	}
	for i, x := range v {
		if math.IsNaN(x) || !infOK && math.IsInf(x, 0) {
			return fmt.Errorf("coordinate %d is %v", i, x)
		}
	}
	return nil
}
