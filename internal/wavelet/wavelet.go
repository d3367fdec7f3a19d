// Package wavelet implements the Haar discrete wavelet transform (DWT) and
// the multiresolution subspace hierarchy that Hyper-M publishes into.
//
// A vector of (power-of-two) dimensionality d is recursively decomposed into
// an approximation of half the length and a detail of half the length, until
// the approximation has length 1 (Figure 1 of the paper). The resulting
// subspaces are, in Hyper-M's order:
//
//	subspace 0: A            (dimension 1)   — the final approximation
//	subspace 1: D_0          (dimension 1)   — the coarsest detail
//	subspace 2: D_1          (dimension 2)
//	...
//	subspace l: D_{l-1}      (dimension 2^{l-1})
//
// for a total of log2(d)+1 subspaces.
//
// Two coefficient conventions are provided:
//
//   - Averaging — the paper's convention (Theorem 3.1 uses "the sum divided
//     by two"): a = (x1+x2)/2, detail = (x1-x2)/2. Under this convention a
//     sphere of radius r in the original space maps inside a sphere of radius
//     r*sqrt(m/d) in a subspace of dimension m (Theorem 3.1), and squared
//     distances satisfy the weighted Parseval identity
//     ‖x-y‖² = Σ_s (d/m_s)·‖c_s(x)-c_s(y)‖².
//   - Orthonormal — the classical orthonormal Haar: a = (x1+x2)/√2,
//     detail = (x1-x2)/√2. Distances are preserved exactly across the whole
//     coefficient set (plain Parseval), and the per-subspace radius bound is
//     simply r.
package wavelet

import (
	"fmt"
	"math"
	"math/bits"
)

// Convention selects the Haar coefficient normalization.
type Convention int

const (
	// Averaging is the paper's convention: pairwise averages and halved
	// differences. This is the Hyper-M default.
	Averaging Convention = iota
	// Orthonormal is the classical orthonormal Haar transform.
	Orthonormal
	// Daubechies4 is the orthonormal D4 wavelet with periodic boundary
	// handling — two vanishing moments, better energy compaction on smooth
	// signals (paper footnote 2's "other wavelets").
	Daubechies4
)

// String returns the convention name.
func (c Convention) String() string {
	switch c {
	case Averaging:
		return "averaging"
	case Orthonormal:
		return "orthonormal"
	case Daubechies4:
		return "daubechies4"
	default:
		return fmt.Sprintf("Convention(%d)", int(c))
	}
}

// Decomposition holds the full multiresolution decomposition of one vector.
type Decomposition struct {
	// Dim is the original dimensionality (a power of two).
	Dim int
	// Conv is the coefficient convention used.
	Conv Convention
	// Approx is the final approximation A, of length 1.
	Approx []float64
	// Details[l] is detail level D_l, of length 2^l, l in [0, log2(Dim)).
	Details [][]float64
}

// IsPow2 reports whether d is a positive power of two.
func IsPow2(d int) bool { return d > 0 && d&(d-1) == 0 }

// Log2 returns log2(d) for a power-of-two d.
func Log2(d int) int {
	if !IsPow2(d) {
		panic(fmt.Sprintf("wavelet: %d is not a power of two", d))
	}
	return bits.TrailingZeros(uint(d))
}

// NumSubspaces returns the number of subspaces in the full hierarchy of a
// d-dimensional vector: log2(d)+1 (the approximation plus log2(d) details).
func NumSubspaces(d int) int { return Log2(d) + 1 }

// SubspaceDim returns the dimensionality of subspace index i
// (0 → A with dim 1; i ≥ 1 → D_{i-1} with dim 2^{i-1}).
func SubspaceDim(i int) int {
	if i < 0 {
		panic("wavelet: negative subspace index")
	}
	if i == 0 {
		return 1
	}
	return 1 << (i - 1)
}

// SubspaceName returns the paper's name for subspace index i: "A" or "D_l".
func SubspaceName(i int) string {
	if i == 0 {
		return "A"
	}
	return fmt.Sprintf("D_%d", i-1)
}

// RadiusScale returns the factor by which a sphere radius in the original
// d-dimensional space shrinks when mapped into the subspace of dimension
// subDim (Theorem 3.1): sqrt(subDim/d) under the Averaging convention, 1
// under Orthonormal (orthonormal projections are contractions bounded by 1).
func RadiusScale(conv Convention, d, subDim int) float64 {
	switch conv {
	case Averaging:
		return math.Sqrt(float64(subDim) / float64(d))
	case Orthonormal, Daubechies4:
		// Orthonormal transforms are isometries; the projection onto any
		// coefficient subset is a contraction bounded by 1.
		return 1
	default:
		panic("wavelet: unknown convention")
	}
}

// DistanceWeight returns the weight of the squared coefficient-space distance
// of a subspace of dimension subDim in the exact identity
// ‖x-y‖² = Σ_s weight_s · ‖c_s(x)-c_s(y)‖².
// Under Averaging the weight is d/subDim; under Orthonormal it is 1.
func DistanceWeight(conv Convention, d, subDim int) float64 {
	switch conv {
	case Averaging:
		return float64(d) / float64(subDim)
	case Orthonormal, Daubechies4:
		return 1
	default:
		panic("wavelet: unknown convention")
	}
}

// Decompose performs a full Haar decomposition of x down to a length-1
// approximation. The length of x must be a power of two (use PadPow2 first
// otherwise). The input slice is not modified.
func Decompose(x []float64, conv Convention) *Decomposition {
	d := len(x)
	if !IsPow2(d) {
		panic(fmt.Sprintf("wavelet: input length %d is not a power of two", d))
	}
	levels := Log2(d)
	dec := &Decomposition{
		Dim:     d,
		Conv:    conv,
		Details: make([][]float64, levels),
	}
	cur := make([]float64, d)
	copy(cur, x)
	// Each step halves the working approximation and emits one detail level.
	// Steps run from the finest detail (D_{levels-1}, length d/2) down to the
	// coarsest (D_0, length 1).
	for l := levels - 1; l >= 0; l-- {
		half := len(cur) / 2
		approx, detail := make([]float64, half), make([]float64, half)
		step(conv, cur, approx, detail)
		dec.Details[l] = detail
		cur = approx
	}
	dec.Approx = cur // length 1
	return dec
}

// Reconstruct inverts the decomposition, returning a fresh vector of length
// Dim. Reconstruction is exact up to floating-point rounding.
func (dec *Decomposition) Reconstruct() []float64 {
	cur := []float64{dec.Approx[0]}
	for l := 0; l < len(dec.Details); l++ {
		detail := dec.Details[l]
		if len(detail) != len(cur) {
			panic(fmt.Sprintf("wavelet: corrupt decomposition: detail %d has length %d, want %d",
				l, len(detail), len(cur)))
		}
		if dec.Conv == Daubechies4 {
			cur = d4Inverse(cur, detail)
			continue
		}
		next := make([]float64, 2*len(cur))
		for i := range cur {
			switch dec.Conv {
			case Averaging:
				next[2*i] = cur[i] + detail[i]
				next[2*i+1] = cur[i] - detail[i]
			case Orthonormal:
				next[2*i] = (cur[i] + detail[i]) / math.Sqrt2
				next[2*i+1] = (cur[i] - detail[i]) / math.Sqrt2
			default:
				panic("wavelet: unknown convention")
			}
		}
		cur = next
	}
	return cur
}

// Subspace returns the coefficient vector of subspace index i
// (0 → A, i ≥ 1 → D_{i-1}). The returned slice aliases the decomposition.
func (dec *Decomposition) Subspace(i int) []float64 {
	if i == 0 {
		return dec.Approx
	}
	if i-1 >= len(dec.Details) {
		panic(fmt.Sprintf("wavelet: subspace %d out of range (dim %d has %d subspaces)",
			i, dec.Dim, NumSubspaces(dec.Dim)))
	}
	return dec.Details[i-1]
}

// NumSubspaces returns the number of subspaces in this decomposition.
func (dec *Decomposition) NumSubspaces() int { return len(dec.Details) + 1 }

// Dist2 returns the exact squared Euclidean distance between the original
// vectors of two decompositions, computed purely from coefficients via the
// weighted Parseval identity. Both decompositions must share Dim and Conv.
func Dist2(a, b *Decomposition) float64 {
	if a.Dim != b.Dim || a.Conv != b.Conv {
		panic("wavelet: incompatible decompositions")
	}
	var sum float64
	for s := 0; s < a.NumSubspaces(); s++ {
		w := DistanceWeight(a.Conv, a.Dim, SubspaceDim(s))
		ca, cb := a.Subspace(s), b.Subspace(s)
		var d2 float64
		for i, v := range ca {
			diff := v - cb[i]
			d2 += diff * diff
		}
		sum += w * d2
	}
	return sum
}

// SubspaceOf transforms a single vector and returns only subspace i's
// coefficients. Convenience for callers that need one level (e.g. translating
// a query center into one overlay's key space).
func SubspaceOf(x []float64, i int, conv Convention) []float64 {
	return Decompose(x, conv).Subspace(i)
}

// PadPow2 returns x zero-padded to the next power-of-two length. If the
// length is already a power of two the original slice is returned unchanged.
func PadPow2(x []float64) []float64 {
	if IsPow2(len(x)) {
		return x
	}
	n := 1
	for n < len(x) {
		n <<= 1
	}
	out := make([]float64, n)
	copy(out, x)
	return out
}

// step performs one analysis step of conv on cur (even length), writing
// the half-length approximation to approx and, unless detail is nil, the
// details to detail. Decompose and SubspaceMatrices both run their steps
// here, so a coefficient has one sequence of operations whichever of them
// makes it.
func step(conv Convention, cur, approx, detail []float64) {
	switch conv {
	case Averaging:
		haarStep(cur, approx, detail, 2)
	case Orthonormal:
		haarStep(cur, approx, detail, math.Sqrt2)
	case Daubechies4:
		d4Step(cur, approx, detail)
	default:
		panic("wavelet: unknown convention")
	}
}

// haarStep is the Haar step with normalization div: approx[i] =
// (cur[2i]+cur[2i+1])/div and detail[i] = (cur[2i]-cur[2i+1])/div. approx
// may be cur itself: entry i is written after cur[2i] and cur[2i+1] are
// read, and no later entry reads below 2i+2.
func haarStep(cur, approx, detail []float64, div float64) {
	half := len(cur) / 2
	if detail == nil {
		for i := 0; i < half; i++ {
			approx[i] = (cur[2*i] + cur[2*i+1]) / div
		}
		return
	}
	for i := 0; i < half; i++ {
		a, b := cur[2*i], cur[2*i+1]
		approx[i] = (a + b) / div
		detail[i] = (a - b) / div
	}
}

// SubspaceMatrices transforms every row of xs and returns, for each subspace
// i below levels, the matrix of every row's subspace-i coefficients: the
// input per-level clustering runs on. Coefficients are bit-identical to
// Decompose's. Only what is returned is stored: the steps run on one
// scratch row (in place for Haar, between two buffers for D4), the details
// of subspaces at or above levels are dropped as they are made, and every
// row of every level is carved from one backing array, so a call makes three
// allocations. The rows of xs must share one power-of-two length d, and
// levels must lie in [0, NumSubspaces(d)].
func SubspaceMatrices(xs [][]float64, levels int, conv Convention) [][][]float64 {
	if levels < 0 {
		panic(fmt.Sprintf("wavelet: %d subspaces asked for", levels))
	}
	n := len(xs)
	out := make([][][]float64, levels)
	headers := make([][]float64, n*levels)
	for l := range out {
		out[l] = headers[l*n : (l+1)*n : (l+1)*n]
	}
	if n == 0 {
		return out
	}
	d := len(xs[0])
	if !IsPow2(d) {
		panic(fmt.Sprintf("wavelet: input length %d is not a power of two", d))
	}
	if levels > NumSubspaces(d) {
		panic(fmt.Sprintf("wavelet: %d subspaces asked of dim %d, which has %d", levels, d, NumSubspaces(d)))
	}
	// A row keeps 2^(levels-1) coefficients, subspace l > 0 starting at the
	// row's coefficient 2^(l-1); level l's block of the backing starts at n
	// times that offset, and the scratch rows follow the last block.
	kept := 0
	if levels > 0 {
		kept = 1 << (levels - 1)
	}
	backing := make([]float64, n*kept+d+d/2)
	for l := range out {
		w, base := SubspaceDim(l), 0
		if l > 0 {
			base = n * w
		}
		for r := range out[l] {
			at := base + r*w
			out[l][r] = backing[at : at+w : at+w]
		}
	}
	scratch := backing[n*kept:]
	for r, x := range xs {
		if len(x) != d {
			panic(fmt.Sprintf("wavelet: row %d has length %d, want %d", r, len(x), d))
		}
		cur, spare := scratch[:d], scratch[d:]
		copy(cur, x)
		for l := Log2(d) - 1; l >= 0; l-- {
			half := len(cur) / 2
			var detail []float64
			if l+1 < levels {
				detail = out[l+1][r]
			}
			approx := cur[:half]
			if conv == Daubechies4 { // a D4 step reads around the row
				approx, spare = spare[:half], cur
			}
			step(conv, cur, approx, detail)
			cur = approx
		}
		if levels > 0 {
			out[0][r][0] = cur[0]
		}
	}
	return out
}
