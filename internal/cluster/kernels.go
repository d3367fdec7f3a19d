package cluster

import "math/rand"

// MixtureData draws n points of dim dimensions from a comps-component
// Gaussian mixture with centers uniform in [0,1]^dim and per-coordinate
// sigma 0.05 — the clustered shape the publish pipeline feeds the k-means
// kernel (wavelet coefficients of Markov-chain or histogram corpora), as
// opposed to structureless uniform noise. Shared by the kernel benchmarks
// here and in bench/.
func MixtureData(n, dim, comps int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, comps)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()
		}
	}
	data := make([][]float64, n)
	for i := range data {
		center := centers[rng.Intn(comps)]
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = center[j] + 0.05*rng.NormFloat64()
		}
	}
	return data
}
