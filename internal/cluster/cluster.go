// Package cluster implements the k-means clustering that Hyper-M runs in
// every wavelet subspace (step i2 of the insertion pipeline), the sphere
// summaries it publishes, and the cohesion/separation quality metrics used
// by the paper's Figure 11 analysis.
//
// Following the paper (§2.2 and §3.1), clusters are represented as spheres:
// a centroid, a radius (distance to the farthest member), and the count of
// items in the cluster. The count feeds the peer relevance score (Eq 1).
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"hyperm/internal/vec"
)

// Cluster is the sphere summary of one k-means cluster (paper §3.1).
type Cluster struct {
	// Centroid is the cluster center in the (sub)space it was built in.
	Centroid []float64
	// Radius is the distance from the centroid to the farthest member.
	// A singleton cluster has radius 0.
	Radius float64
	// Count is the number of data items summarized by this cluster.
	Count int
}

// String renders a short human-readable summary.
func (c Cluster) String() string {
	return fmt.Sprintf("cluster{dim=%d r=%.4g n=%d}", len(c.Centroid), c.Radius, c.Count)
}

// Contains reports whether x lies inside the cluster sphere (inclusive).
func (c Cluster) Contains(x []float64) bool {
	return vec.Dist(c.Centroid, x) <= c.Radius+1e-12
}

// Lloyd iterations stop after maxIter rounds, or once no centroid moves
// more than tol.
const (
	maxIter = 50
	tol     = 1e-6
)

// Config tunes the k-means run.
type Config struct {
	// K is the number of clusters requested. If K exceeds the number of
	// points, every point becomes its own cluster.
	K int
	// Rng drives k-means++ seeding and empty-cluster reseeding. Must be
	// non-nil: all randomness in this repository is explicitly seeded.
	Rng *rand.Rand
}

// Result is the output of a k-means run.
type Result struct {
	// Clusters are the sphere summaries, in arbitrary order. Empty clusters
	// never appear: len(Clusters) <= Config.K.
	Clusters []Cluster
	// Assign maps each input point index to its cluster index in Clusters.
	Assign []int
	// Iters is the number of Lloyd iterations executed.
	Iters int
}

// validateKMeansInput panics on malformed input and returns the shared row
// dimensionality.
func validateKMeansInput(data [][]float64, cfg Config) int {
	if len(data) == 0 {
		panic("cluster: KMeans on empty data")
	}
	if cfg.K < 1 {
		panic("cluster: K must be >= 1")
	}
	if cfg.Rng == nil {
		panic("cluster: Config.Rng must be set (explicit seeding required)")
	}
	dim := len(data[0])
	for i, x := range data {
		if len(x) != dim {
			panic(fmt.Sprintf("cluster: row %d has dim %d, want %d", i, len(x), dim))
		}
	}
	return dim
}

// KMeans clusters data into (at most) cfg.K sphere summaries using
// k-means++ seeding followed by Lloyd iterations.
//
// The input points are never modified; centroids are freshly allocated.
// KMeans panics if data is empty, rows have inconsistent dimensionality,
// cfg.K < 1, or cfg.Rng is nil.
//
// This is the optimized kernel on Hyper-M's publish hot path (step i2 runs
// once per peer per wavelet level): incremental k-means++ seeding (O(n·k)
// total instead of O(n·k²)), Lloyd iterations over flat double-buffered
// centroid/accumulator arrays with zero per-iteration allocations, and
// Hamerly-style triangle-inequality pruning (per-point bounds, each point's
// lower bound drifted by the largest movement among the other centroids, and
// the centroid-separation bound) with partial-distance early exits in the
// assignment scans. Every floating-point operation that reaches
// the output is performed in the same order as the naive kernel, so results
// are bit-identical to kmeansReference (the pruning only skips computations
// whose outcome is already decided); TestPropOptimizedMatchesReference
// checks exact equality.
func KMeans(data [][]float64, cfg Config) Result {
	dim := validateKMeansInput(data, cfg)
	k := cfg.K
	if k > len(data) {
		k = len(data)
	}
	st := newKmeansState(len(data), k, dim)
	st.seed(data, cfg.Rng)
	iters := 0
	fullScan := true
	for ; iters < maxIter; iters++ {
		st.assignStep(data, fullScan)
		fullScan = false
		if st.updateStep(data) <= tol {
			iters++
			break
		}
	}
	// Final assignment against the converged centroids.
	st.assignStep(data, fullScan)
	return st.result(data, iters)
}

// kmeansState holds every buffer one KMeans call needs, carved out of two
// backing allocations up front. Centroids live in flat row-major arrays;
// cent and next are swapped after each update step instead of reallocating.
type kmeansState struct {
	n, k, dim  int
	cent, next []float64 // k*dim row-major centroid buffers
	counts     []int
	assign     []int
	// Hamerly bounds, valid after the first full assignment scan: upper[i]
	// is an upper bound on the distance from point i to its assigned
	// centroid, lower[i] a lower bound on its distance to every other
	// centroid. A point whose upper < lower cannot change assignment.
	upper, lower []float64
	move         []float64 // per-centroid movement of the last update step
	// drift[c] is the largest movement of the last update step among the
	// centroids other than c: how far the lower bound of a point assigned
	// to c falls.
	drift []float64
	// sep[c] is half the distance from centroid c to the nearest other one:
	// a point within sep[c] of c is nearer c than any other centroid.
	sep      []float64
	remap    []int // result-compaction scratch
	maxMove  float64
	repaired []int // point indices chosen by empty-cluster repairs
}

func newKmeansState(n, k, dim int) kmeansState {
	floats := make([]float64, 2*k*dim+2*n+3*k)
	ints := make([]int, n+2*k)
	st := kmeansState{n: n, k: k, dim: dim}
	st.cent, floats = floats[:k*dim], floats[k*dim:]
	st.next, floats = floats[:k*dim], floats[k*dim:]
	st.upper, floats = floats[:n], floats[n:]
	st.lower, floats = floats[:n], floats[n:]
	st.sep, floats = floats[:k], floats[k:]
	st.drift, floats = floats[:k], floats[k:]
	st.move = floats
	st.assign, ints = ints[:n], ints[n:]
	st.counts, ints = ints[:k], ints[k:]
	st.remap = ints
	return st
}

func (st *kmeansState) row(c int) []float64     { return st.cent[c*st.dim : (c+1)*st.dim] }
func (st *kmeansState) nextRow(c int) []float64 { return st.next[c*st.dim : (c+1)*st.dim] }

// seed performs incremental k-means++ initialization: the per-point minimum
// squared distance to the chosen centroids is maintained across centroid
// additions (one Dist2 per point per round) instead of rescanning every
// centroid. The minimum of the same identically-computed distances is exact
// regardless of evaluation order, and the RNG draw sequence matches the
// naive seeding, so the chosen centroids are bit-identical to
// seedPlusPlusRef's.
func (st *kmeansState) seed(data [][]float64, rng *rand.Rand) {
	copy(st.cent[:st.dim], data[rng.Intn(st.n)])
	if st.k == 1 {
		return
	}
	d2 := st.lower // scratch until the first assignment scan overwrites it
	for i, x := range data {
		d2[i] = vec.Dist2(x, st.cent[:st.dim])
	}
	for chosen := 1; chosen < st.k; chosen++ {
		var total float64
		for _, w := range d2 {
			total += w
		}
		var idx int
		if total == 0 {
			// All remaining points coincide with existing centroids; any
			// choice works and the clusters will be deduplicated by counts.
			idx = rng.Intn(st.n)
		} else {
			target := rng.Float64() * total
			idx = st.n - 1
			var acc float64
			for i, w := range d2 {
				acc += w
				if acc >= target {
					idx = i
					break
				}
			}
		}
		row := st.cent[chosen*st.dim : (chosen+1)*st.dim]
		copy(row, data[idx])
		if chosen+1 == st.k {
			break
		}
		for i, x := range data {
			if d := vec.Dist2(x, row); d < d2[i] {
				d2[i] = d
			}
		}
	}
}

// assignStep computes the nearest centroid for every point. After the first
// full scan it applies the pending centroid drift to the Hamerly bounds and
// rescans only the points whose bounds cannot certify their assignment.
//
// A point keeps its centroid a when its upper bound u is below m, the larger
// of two bounds on its distance to every other centroid: its drifted lower
// bound, and sep[a] — a centroid c at distance at least 2·sep[a] from a is at
// least 2·sep[a] − u > u from the point. The comparison is strict, so a is
// then the unique nearest centroid and the naive scan, whose ties keep the
// lowest index, picks it too.
func (st *kmeansState) assignStep(data [][]float64, full bool) {
	if full {
		for i, x := range data {
			st.scanPoint(i, x)
		}
		return
	}
	st.separate()
	assign := st.assign[:len(data)]
	upper, lower := st.upper[:len(assign)], st.lower[:len(assign)]
	for i, a := range assign {
		u := upper[i] + st.move[a]
		l := lower[i] - st.drift[a]
		m := l
		if st.sep[a] > m {
			m = st.sep[a]
		}
		if u < m {
			upper[i], lower[i] = u, l
			continue
		}
		// Tighten the upper bound with one exact distance before falling
		// back to the full scan.
		x := data[i]
		u = math.Sqrt(st.dist2(x, a))
		if u < m {
			upper[i], lower[i] = u, l
			continue
		}
		st.scanPoint(i, x)
	}
}

// separate sets sep[c] to half the distance from centroid c to its nearest
// other centroid (+Inf for a lone centroid).
func (st *kmeansState) separate() {
	for c := range st.sep {
		st.sep[c] = math.Inf(1)
	}
	for c := 0; c < st.k; c++ {
		for o := c + 1; o < st.k; o++ {
			h := math.Sqrt(vec.Dist2(st.row(c), st.row(o))) / 2
			if h < st.sep[c] {
				st.sep[c] = h
			}
			if h < st.sep[o] {
				st.sep[o] = h
			}
		}
	}
}

// smallDim is the dimensionality below which distances to the flat centroid
// rows are summed inline: vec.Dist2Capped checks its cap once per 8
// coordinates, so below 8 it is a call that never prunes.
const smallDim = 8

// dist2 is the squared distance from x to centroid c, summed in vec.Dist2's
// order, so bit-identical to it.
func (st *kmeansState) dist2(x []float64, c int) float64 {
	if st.dim >= smallDim {
		return vec.Dist2(x, st.row(c))
	}
	row := st.cent[c*st.dim:]
	row = row[:len(x)]
	var s float64
	for j, v := range x {
		t := v - row[j]
		s += t * t
	}
	return s
}

// scanPoint is the full assignment scan for one point, tracking the best and
// second-best squared distances (the Hamerly bounds). From smallDim on each
// candidate scan is capped at the running second-best distance: a partial
// sum that reaches the cap proves the candidate can affect neither bound, and
// below the cap the capped distance is bit-identical to vec.Dist2, so the
// selected index (ties keep the lowest, exactly like the naive argmin) and
// both bounds match the unpruned scan. Below smallDim the distances are
// summed inline over the flat centroid rows, in the same order.
func (st *kmeansState) scanPoint(i int, x []float64) {
	best, best2, second2 := 0, math.Inf(1), math.Inf(1)
	if st.dim < smallDim {
		for c, off := 0, 0; c < st.k; c, off = c+1, off+st.dim {
			row := st.cent[off:]
			row = row[:len(x)]
			var d2 float64
			for j, v := range x {
				t := v - row[j]
				d2 += t * t
			}
			if d2 < best2 {
				best, best2, second2 = c, d2, best2
			} else if d2 < second2 {
				second2 = d2
			}
		}
	} else {
		for c := 0; c < st.k; c++ {
			d2 := vec.Dist2Capped(x, st.row(c), second2)
			if d2 < best2 {
				best, best2, second2 = c, d2, best2
			} else if d2 < second2 {
				second2 = d2
			}
		}
	}
	st.assign[i] = best
	st.upper[i] = math.Sqrt(best2)
	st.lower[i] = math.Sqrt(second2)
}

// updateStep recomputes centroids from the current assignment and returns
// the largest centroid movement. Accumulation runs over points in index
// order into the flat next buffer — the same addition order as the naive
// kernel — so the new centroids are bit-identical; only the allocations are
// gone.
func (st *kmeansState) updateStep(data [][]float64) float64 {
	for i := range st.next {
		st.next[i] = 0
	}
	for c := range st.counts {
		st.counts[c] = 0
	}
	for i, x := range data {
		a := st.assign[i]
		row := st.nextRow(a)
		for j, v := range x {
			row[j] += v
		}
		st.counts[a]++
	}
	st.repaired = st.repaired[:0]
	for c := 0; c < st.k; c++ {
		row := st.nextRow(c)
		if st.counts[c] == 0 {
			// Reseed an empty cluster at the point farthest from the current
			// centroids and any repairs already made this step, so
			// simultaneous repairs land on distinct points.
			far := st.farthestPoint(data)
			copy(row, data[far])
			st.repaired = append(st.repaired, far)
			continue
		}
		inv := 1 / float64(st.counts[c])
		for j := range row {
			row[j] *= inv
		}
	}
	// The largest movement, the centroid that made it, and the largest
	// among the others: each centroid's drift is one of the two.
	var maxMove2 float64
	maxAt := 0
	st.maxMove = 0
	for c := 0; c < st.k; c++ {
		m := math.Sqrt(vec.Dist2(st.row(c), st.nextRow(c)))
		st.move[c] = m
		if m > st.maxMove {
			st.maxMove, maxMove2, maxAt = m, st.maxMove, c
		} else if m > maxMove2 {
			maxMove2 = m
		}
	}
	for c := range st.drift {
		st.drift[c] = st.maxMove
	}
	st.drift[maxAt] = maxMove2
	st.cent, st.next = st.next, st.cent
	return st.maxMove
}

// farthestPoint returns the point farthest from the union of the current
// (pre-update) centroids and the repairs already made this step. Ties keep
// the lowest index, matching farthestPointRef.
func (st *kmeansState) farthestPoint(data [][]float64) int {
	best, bestD := 0, -1.0
	for i, x := range data {
		near := math.Inf(1)
		for c := 0; c < st.k; c++ {
			if d := vec.Dist2Capped(x, st.row(c), near); d < near {
				near = d
			}
		}
		for _, r := range st.repaired {
			if d := vec.Dist2Capped(x, data[r], near); d < near {
				near = d
			}
		}
		if near > bestD {
			best, bestD = i, near
		}
	}
	return best
}

// result computes radii and counts, drops empty clusters and compacts
// assignment indices — the same values buildResult produces, assembled with
// a single flat backing array for the output centroids.
func (st *kmeansState) result(data [][]float64, iters int) Result {
	k := st.k
	for c := range st.counts {
		st.counts[c] = 0
	}
	radii := st.move // the k-sized movement buffer is free after the last update
	for c := range radii {
		radii[c] = 0
	}
	for i, x := range data {
		c := st.assign[i]
		st.counts[c]++
		if d := vec.Dist(x, st.row(c)); d > radii[c] {
			radii[c] = d
		}
	}
	live := 0
	for c := 0; c < k; c++ {
		if st.counts[c] > 0 {
			live++
		}
	}
	backing := make([]float64, live*st.dim)
	clusters := make([]Cluster, 0, live)
	remap := st.remap
	for c := 0; c < k; c++ {
		if st.counts[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(clusters)
		cent := backing[len(clusters)*st.dim : (len(clusters)+1)*st.dim]
		copy(cent, st.row(c))
		clusters = append(clusters, Cluster{
			Centroid: cent,
			Radius:   radii[c],
			Count:    st.counts[c],
		})
	}
	out := make([]int, st.n)
	for i, c := range st.assign {
		out[i] = remap[c]
	}
	return Result{Clusters: clusters, Assign: out, Iters: iters}
}

// buildResult computes radii and counts, dropping empty clusters and
// compacting assignment indices.
func buildResult(data, centroids [][]float64, assign []int, iters int) Result {
	k := len(centroids)
	counts := make([]int, k)
	radii := make([]float64, k)
	for i, x := range data {
		c := assign[i]
		counts[c]++
		if d := vec.Dist(x, centroids[c]); d > radii[c] {
			radii[c] = d
		}
	}
	remap := make([]int, k)
	var clusters []Cluster
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(clusters)
		clusters = append(clusters, Cluster{
			Centroid: vec.Clone(centroids[c]),
			Radius:   radii[c],
			Count:    counts[c],
		})
	}
	out := make([]int, len(assign))
	for i, c := range assign {
		out[i] = remap[c]
	}
	return Result{Clusters: clusters, Assign: out, Iters: iters}
}

// Quality holds the clustering goodness metrics used by Figure 11.
type Quality struct {
	// Cohesion is the average distance of each point to its own centroid
	// (lower is tighter).
	Cohesion float64
	// Separation is the average pairwise distance between distinct
	// centroids (higher is better separated). Zero when fewer than two
	// clusters exist.
	Separation float64
}

// Ratio returns cohesion/separation, the paper's 'goodness' proportion
// (Figure 11): lower means tighter, better-separated clusters. It returns
// +Inf when separation is zero.
func (q Quality) Ratio() float64 {
	if q.Separation == 0 {
		return math.Inf(1)
	}
	return q.Cohesion / q.Separation
}

// Evaluate computes the cohesion/separation quality of a clustering result
// over the data it was built from.
func Evaluate(data [][]float64, res Result) Quality {
	var q Quality
	if len(data) == 0 {
		return q
	}
	var sum float64
	for i, x := range data {
		sum += vec.Dist(x, res.Clusters[res.Assign[i]].Centroid)
	}
	q.Cohesion = sum / float64(len(data))
	n := len(res.Clusters)
	if n < 2 {
		return q
	}
	var sep float64
	var pairs int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sep += vec.Dist(res.Clusters[i].Centroid, res.Clusters[j].Centroid)
			pairs++
		}
	}
	q.Separation = sep / float64(pairs)
	return q
}
