package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"hyperm/internal/vec"
)

// kmeansReference is the naive pre-optimization k-means kernel: full
// O(n·k·d) scans per Lloyd iteration, O(n·k²) k-means++ seeding, and fresh
// accumulator allocations every iteration. It is retained verbatim (modulo
// the distinct-empty-repair fix, applied to both kernels) as the golden
// oracle: the optimized KMeans must produce bit-identical results, which
// TestPropOptimizedMatchesReference verifies.
func kmeansReference(data [][]float64, cfg Config) Result {
	dim := validateKMeansInput(data, cfg)
	k := cfg.K
	if k > len(data) {
		k = len(data)
	}

	centroids := seedPlusPlusRef(data, k, cfg.Rng)
	assign := make([]int, len(data))
	counts := make([]int, k)
	iters := 0
	for ; iters < maxIter; iters++ {
		// Assignment step.
		for i, x := range data {
			assign[i] = nearestCentroidRef(x, centroids)
		}
		// Update step.
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, dim)
			counts[c] = 0
		}
		for i, x := range data {
			vec.Add(next[assign[i]], x)
			counts[assign[i]]++
		}
		var repaired [][]float64
		for c := range next {
			if counts[c] == 0 {
				// Reseed an empty cluster at the point farthest from the
				// current centroids and any repairs already made this step,
				// so simultaneous repairs land on distinct points.
				far := farthestPointRef(data, centroids, repaired)
				copy(next[c], data[far])
				repaired = append(repaired, data[far])
				continue
			}
			vec.Scale(next[c], 1/float64(counts[c]))
		}
		// Convergence check.
		moved := 0.0
		for c := range centroids {
			if m := vec.Dist(centroids[c], next[c]); m > moved {
				moved = m
			}
		}
		centroids = next
		if moved <= tol {
			iters++
			break
		}
	}
	// Final assignment against the converged centroids.
	for i, x := range data {
		assign[i] = nearestCentroidRef(x, centroids)
	}
	return buildResult(data, centroids, assign, iters)
}

// seedPlusPlusRef performs k-means++ initialization by rescanning every
// chosen centroid for every point each round (the O(n·k²) baseline).
func seedPlusPlusRef(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := data[rng.Intn(len(data))]
	centroids = append(centroids, vec.Clone(first))
	d2 := make([]float64, len(data))
	for len(centroids) < k {
		var total float64
		for i, x := range data {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := vec.Dist2(x, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with existing centroids; any
			// choice works and the clusters will be deduplicated by counts.
			centroids = append(centroids, vec.Clone(data[rng.Intn(len(data))]))
			continue
		}
		target := rng.Float64() * total
		idx := len(data) - 1
		var acc float64
		for i, w := range d2 {
			acc += w
			if acc >= target {
				idx = i
				break
			}
		}
		centroids = append(centroids, vec.Clone(data[idx]))
	}
	return centroids
}

func nearestCentroidRef(x []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := vec.Dist2(x, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// farthestPointRef returns the index of the point farthest from the union of
// centroids and extra (the repairs already made in this update step). Ties
// keep the lowest index.
func farthestPointRef(data, centroids, extra [][]float64) int {
	best, bestD := 0, -1.0
	for i, x := range data {
		near := math.Inf(1)
		for _, c := range centroids {
			if d := vec.Dist2(x, c); d < near {
				near = d
			}
		}
		for _, c := range extra {
			if d := vec.Dist2(x, c); d < near {
				near = d
			}
		}
		if near > bestD {
			best, bestD = i, near
		}
	}
	return best
}

// resultsIdentical reports whether two k-means results are exactly equal —
// bit-identical centroids and radii, equal assignments, counts and iteration
// counts.
func resultsIdentical(a, b Result) error {
	if a.Iters != b.Iters {
		return fmt.Errorf("iters %d vs %d", a.Iters, b.Iters)
	}
	if len(a.Clusters) != len(b.Clusters) {
		return fmt.Errorf("%d vs %d clusters", len(a.Clusters), len(b.Clusters))
	}
	for i := range a.Clusters {
		ca, cb := a.Clusters[i], b.Clusters[i]
		if ca.Radius != cb.Radius || ca.Count != cb.Count {
			return fmt.Errorf("cluster %d: radius/count %v/%d vs %v/%d", i, ca.Radius, ca.Count, cb.Radius, cb.Count)
		}
		if len(ca.Centroid) != len(cb.Centroid) {
			return fmt.Errorf("cluster %d: centroid dim %d vs %d", i, len(ca.Centroid), len(cb.Centroid))
		}
		for j := range ca.Centroid {
			if ca.Centroid[j] != cb.Centroid[j] {
				return fmt.Errorf("cluster %d: centroid[%d] %v vs %v", i, j, ca.Centroid[j], cb.Centroid[j])
			}
		}
	}
	if len(a.Assign) != len(b.Assign) {
		return fmt.Errorf("assign length %d vs %d", len(a.Assign), len(b.Assign))
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return fmt.Errorf("assign[%d] %d vs %d", i, a.Assign[i], b.Assign[i])
		}
	}
	return nil
}
