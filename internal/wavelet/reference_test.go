package wavelet

import (
	"fmt"
	"math"
)

// The frozen reference for SubspaceMatrices: the full per-item decomposition
// and per-level copy the publish pipeline ran before the coarse transform,
// kept verbatim (Decompose and its D4 step included, as they were before the
// steps were shared) so that a change to the live steps cannot move both
// sides of the differential tests at once.

// decomposeRef is Decompose as it was frozen.
func decomposeRef(x []float64, conv Convention) *Decomposition {
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
	for l := levels - 1; l >= 0; l-- {
		var approx, detail []float64
		if conv == Daubechies4 {
			approx, detail = d4StepRef(cur)
		} else {
			half := len(cur) / 2
			approx = make([]float64, half)
			detail = make([]float64, half)
			for i := 0; i < half; i++ {
				a, b := cur[2*i], cur[2*i+1]
				switch conv {
				case Averaging:
					approx[i] = (a + b) / 2
					detail[i] = (a - b) / 2
				case Orthonormal:
					approx[i] = (a + b) / math.Sqrt2
					detail[i] = (a - b) / math.Sqrt2
				default:
					panic("wavelet: unknown convention")
				}
			}
		}
		dec.Details[l] = detail
		cur = approx
	}
	dec.Approx = cur
	return dec
}

// d4StepRef is the frozen allocating D4 step.
func d4StepRef(cur []float64) (approx, detail []float64) {
	n := len(cur)
	half := n / 2
	approx = make([]float64, half)
	detail = make([]float64, half)
	if n == 2 {
		approx[0] = (cur[0] + cur[1]) / math.Sqrt2
		detail[0] = (cur[0] - cur[1]) / math.Sqrt2
		return approx, detail
	}
	for i := 0; i < half; i++ {
		var a, d float64
		for k := 0; k < 4; k++ {
			v := cur[(2*i+k)%n]
			a += d4Lo[k] * v
			d += d4Hi[k] * v
		}
		approx[i] = a
		detail[i] = d
	}
	return approx, detail
}

// decomposeAllRef decomposes every row of xs with the given convention.
func decomposeAllRef(xs [][]float64, conv Convention) []*Decomposition {
	out := make([]*Decomposition, len(xs))
	for i, x := range xs {
		out[i] = decomposeRef(x, conv)
	}
	return out
}

// subspaceMatrixRef extracts subspace i's coefficients from every
// decomposition as fresh rows.
func subspaceMatrixRef(decs []*Decomposition, i int) [][]float64 {
	out := make([][]float64, len(decs))
	for r, dec := range decs {
		src := dec.Subspace(i)
		row := make([]float64, len(src))
		copy(row, src)
		out[r] = row
	}
	return out
}
