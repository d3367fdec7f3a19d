package wavelet

import "math"

// Daubechies-4 filters (orthonormal): the canonical coefficients
// ((1±√3), (3±√3)) / (4√2). The synthesis transform is the transpose of the
// analysis transform, which the periodic implementation below exploits. D4
// has two vanishing moments: constant and linear signals produce (interior)
// zero detail coefficients, making it a better compactor than Haar for
// smooth feature vectors — the paper's footnote 2 notes the framework
// extends to such wavelets.
var (
	d4Lo [4]float64 // low-pass (scaling) filter h
	d4Hi [4]float64 // high-pass (wavelet) filter g, g_k = (-1)^k h_{3-k}
)

func init() {
	s3 := math.Sqrt(3)
	den := 4 * math.Sqrt2
	d4Lo = [4]float64{(1 + s3) / den, (3 + s3) / den, (3 - s3) / den, (1 - s3) / den}
	for k := 0; k < 4; k++ {
		sign := 1.0
		if k%2 == 1 {
			sign = -1
		}
		d4Hi[k] = sign * d4Lo[3-k]
	}
}

// d4Step performs one periodic Daubechies-4 analysis step on cur (length n,
// even, >= 4), writing approx[i] = Σ_k h_k cur[(2i+k) mod n] and, unless
// detail is nil, the corresponding details. approx must not overlap cur. For
// n == 2 the step degenerates to the orthonormal Haar step (standard
// practice for short periodic signals).
func d4Step(cur, approx, detail []float64) {
	n := len(cur)
	if n == 2 {
		haarStep(cur, approx, detail, math.Sqrt2)
		return
	}
	for i := 0; i < n/2; i++ {
		var a, d float64
		for k := 0; k < 4; k++ {
			v := cur[(2*i+k)%n]
			a += d4Lo[k] * v
			d += d4Hi[k] * v
		}
		approx[i] = a
		if detail != nil {
			detail[i] = d
		}
	}
}

// d4Inverse inverts one step: the analysis transform is orthogonal, so the
// inverse is its transpose — cur[j] = Σ_i approx[i]·h_{(j-2i) mod n} +
// detail[i]·g_{(j-2i) mod n}, with only k in 0..3 contributing.
func d4Inverse(approx, detail []float64) []float64 {
	half := len(approx)
	n := 2 * half
	out := make([]float64, n)
	if n == 2 {
		out[0] = (approx[0] + detail[0]) / math.Sqrt2
		out[1] = (approx[0] - detail[0]) / math.Sqrt2
		return out
	}
	for i := 0; i < half; i++ {
		for k := 0; k < 4; k++ {
			j := (2*i + k) % n
			out[j] += approx[i]*d4Lo[k] + detail[i]*d4Hi[k]
		}
	}
	return out
}
