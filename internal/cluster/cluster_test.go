package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperm/internal/vec"
)

// twoBlobs returns points drawn around two well-separated centers.
func twoBlobs(rng *rand.Rand, nPer int) [][]float64 {
	var data [][]float64
	centers := [][]float64{{0, 0}, {10, 10}}
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			data = append(data, []float64{
				c[0] + rng.NormFloat64()*0.5,
				c[1] + rng.NormFloat64()*0.5,
			})
		}
	}
	return data
}

func TestKMeansTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := twoBlobs(rng, 50)
	res := KMeans(data, Config{K: 2, Rng: rng})
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(res.Clusters))
	}
	// Each cluster should hold exactly one blob.
	for _, c := range res.Clusters {
		if c.Count != 50 {
			t.Errorf("cluster count %d, want 50", c.Count)
		}
		nearOrigin := vec.Norm(c.Centroid) < 3
		nearTen := vec.Dist(c.Centroid, []float64{10, 10}) < 3
		if !nearOrigin && !nearTen {
			t.Errorf("centroid %v not near either blob center", c.Centroid)
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := twoBlobs(rng, 20)
	res := KMeans(data, Config{K: 1, Rng: rng})
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want 1", len(res.Clusters))
	}
	if res.Clusters[0].Count != 40 {
		t.Errorf("count = %d, want 40", res.Clusters[0].Count)
	}
	// Centroid of the union should sit midway.
	if vec.Dist(res.Clusters[0].Centroid, []float64{5, 5}) > 1.5 {
		t.Errorf("centroid %v not near (5,5)", res.Clusters[0].Centroid)
	}
}

func TestKMeansKLargerThanData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	res := KMeans(data, Config{K: 10, Rng: rng})
	if len(res.Clusters) > 3 {
		t.Fatalf("got %d clusters for 3 points", len(res.Clusters))
	}
	total := 0
	for _, c := range res.Clusters {
		total += c.Count
	}
	if total != 3 {
		t.Errorf("counts sum to %d, want 3", total)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res := KMeans(data, Config{K: 2, Rng: rng})
	total := 0
	for _, c := range res.Clusters {
		total += c.Count
		if c.Radius != 0 {
			t.Errorf("identical points should give zero radius, got %v", c.Radius)
		}
	}
	if total != 4 {
		t.Errorf("counts sum to %d, want 4", total)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	data := twoBlobs(rand.New(rand.NewSource(5)), 30)
	r1 := KMeans(data, Config{K: 3, Rng: rand.New(rand.NewSource(42))})
	r2 := KMeans(data, Config{K: 3, Rng: rand.New(rand.NewSource(42))})
	if len(r1.Clusters) != len(r2.Clusters) {
		t.Fatal("same seed produced different cluster counts")
	}
	for i := range r1.Clusters {
		if !vec.ApproxEqual(r1.Clusters[i].Centroid, r2.Clusters[i].Centroid, 0) {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestKMeansPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty data", func() { KMeans(nil, Config{K: 1, Rng: rand.New(rand.NewSource(1))}) }},
		{"k<1", func() { KMeans([][]float64{{1}}, Config{K: 0, Rng: rand.New(rand.NewSource(1))}) }},
		{"nil rng", func() { KMeans([][]float64{{1}}, Config{K: 1}) }},
		{"ragged rows", func() {
			KMeans([][]float64{{1, 2}, {1}}, Config{K: 1, Rng: rand.New(rand.NewSource(1))})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// Property: every point lies inside its assigned cluster sphere, and counts
// sum to the number of points. These are the invariants Hyper-M's score and
// no-false-dismissal guarantees rest on.
func TestPropSphereInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		d := 1 + rng.Intn(8)
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, d)
			for j := range data[i] {
				data[i][j] = rng.NormFloat64() * 10
			}
		}
		k := 1 + rng.Intn(6)
		res := KMeans(data, Config{K: k, Rng: rng})
		total := 0
		for _, c := range res.Clusters {
			total += c.Count
		}
		if total != n {
			return false
		}
		for i, x := range data {
			c := res.Clusters[res.Assign[i]]
			if vec.Dist(x, c.Centroid) > c.Radius+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: increasing K never increases cohesion on the same data
// (more clusters can only tighten or keep the average point-to-centroid
// distance, up to local-minimum noise — we allow a small slack).
func TestMoreClustersTighterCohesion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := twoBlobs(rng, 100)
	q2 := Evaluate(data, KMeans(data, Config{K: 2, Rng: rand.New(rand.NewSource(1))}))
	q8 := Evaluate(data, KMeans(data, Config{K: 8, Rng: rand.New(rand.NewSource(1))}))
	if q8.Cohesion > q2.Cohesion*1.05 {
		t.Errorf("cohesion with K=8 (%v) should not exceed K=2 (%v)", q8.Cohesion, q2.Cohesion)
	}
}

func TestContains(t *testing.T) {
	c := Cluster{Centroid: []float64{0, 0}, Radius: 1}
	if !c.Contains([]float64{0.5, 0.5}) {
		t.Error("point inside sphere reported outside")
	}
	if c.Contains([]float64{2, 0}) {
		t.Error("point outside sphere reported inside")
	}
	if !c.Contains([]float64{1, 0}) {
		t.Error("boundary point should be inside (inclusive)")
	}
}

func TestEvaluateQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := twoBlobs(rng, 50)
	res := KMeans(data, Config{K: 2, Rng: rng})
	q := Evaluate(data, res)
	if q.Cohesion <= 0 {
		t.Errorf("cohesion = %v, want > 0", q.Cohesion)
	}
	// Two blobs 10*sqrt(2) apart with sigma 0.5: separation ~ 14, cohesion < 2.
	if q.Separation < 10 {
		t.Errorf("separation = %v, want > 10", q.Separation)
	}
	if q.Ratio() > 0.2 {
		t.Errorf("quality ratio = %v, want small for well-separated blobs", q.Ratio())
	}
}

func TestQualityRatioInfForSingleCluster(t *testing.T) {
	q := Quality{Cohesion: 1, Separation: 0}
	if !math.IsInf(q.Ratio(), 1) {
		t.Error("ratio with zero separation should be +Inf")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	q := Evaluate(nil, Result{})
	if q.Cohesion != 0 || q.Separation != 0 {
		t.Error("empty evaluation should be zero")
	}
}

func TestClusterString(t *testing.T) {
	s := Cluster{Centroid: []float64{1, 2}, Radius: 0.5, Count: 3}.String()
	if s == "" {
		t.Error("String should not be empty")
	}
}

// TestPropOptimizedMatchesReference is the golden test for the optimized
// kernel: KMeans must return results bit-identical to the naive
// kmeansReference over 3,240 configurations of three families —
//   - random (n, k, dim ≤ 20) with heavy point duplication, which exercises
//     the zero-weight seeding path and empty-cluster repairs;
//   - the publish's coefficient matrices: d ∈ {1, 2, 4}, n up to 1,800,
//     k = 10, on clustered data;
//   - integer-lattice points, whose exact distance ties sit on the equality
//     edges of the pruning bounds (a point midway between two centroids is
//     exactly at its centroid's separation bound). Few trajectories pass
//     through such a tie — about one in 500 of the small 1-d ones — so the
//     family runs 3,000 of those besides 80 larger ones in up to 4-d.
func TestPropOptimizedMatchesReference(t *testing.T) {
	check := func(family string, seed int64, data [][]float64, k int, runSeed int64) {
		t.Helper()
		ref := kmeansReference(data, Config{K: k, Rng: rand.New(rand.NewSource(runSeed))})
		opt := KMeans(data, Config{K: k, Rng: rand.New(rand.NewSource(runSeed))})
		if err := resultsIdentical(ref, opt); err != nil {
			t.Fatalf("%s seed=%d n=%d k=%d dim=%d: %v", family, seed, len(data), k, len(data[0]), err)
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(300)
		dim := 1 + rng.Intn(20)
		k := 1 + rng.Intn(14)
		data := make([][]float64, n)
		for i := range data {
			if i > 0 && rng.Float64() < 0.3 {
				// Duplicate an earlier point to force distance ties and,
				// with enough duplication, empty clusters.
				data[i] = data[rng.Intn(i)]
				continue
			}
			data[i] = make([]float64, dim)
			for j := range data[i] {
				data[i][j] = rng.NormFloat64() * 10
			}
		}
		check("random", seed, data, k, rng.Int63())
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := []int{1, 2, 4}[seed%3]
		n := 30 + rng.Intn(1771)
		check("coefficients", seed, MixtureData(n, dim, 2+rng.Intn(12), rng), 10, rng.Int63())
	}
	lattice := func(rng *rand.Rand, n, dim, side int) [][]float64 {
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, dim)
			for j := range data[i] {
				data[i][j] = float64(rng.Intn(side))
			}
		}
		return data
	}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := lattice(rng, 5+rng.Intn(600), 1+rng.Intn(4), 2+rng.Intn(6))
		check("lattice", seed, data, 1+rng.Intn(12), rng.Int63())
	}
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := lattice(rng, 4+rng.Intn(7), 1, 2+rng.Intn(5))
		check("small-lattice", seed, data, 2+rng.Intn(3), rng.Int63())
	}
}

// TestEmptyClusterRepairsDistinct drives the update step directly into the
// two-empty-clusters state: three identical centroids over three distinct
// points assign everything to centroid 0, so clusters 1 and 2 are both empty
// in the same step. The repairs must land on distinct points (the old kernel
// reseeded both at the same farthest point).
func TestEmptyClusterRepairsDistinct(t *testing.T) {
	data := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	st := newKmeansState(3, 3, 2)
	// All three centroids at the origin; assignment ties keep index 0.
	st.assignStep(data, true)
	for i, a := range st.assign {
		if a != 0 {
			t.Fatalf("point %d assigned to %d, want 0", i, a)
		}
	}
	st.updateStep(data)
	r1, r2 := st.row(1), st.row(2)
	if r1[0] == r2[0] && r1[1] == r2[1] {
		t.Fatalf("both empty clusters repaired to the same centroid %v", r1)
	}
	// The reference helper must make the same distinct choices.
	centroids := [][]float64{{0, 0}, {0, 0}, {0, 0}}
	first := farthestPointRef(data, centroids, nil)
	second := farthestPointRef(data, centroids, [][]float64{data[first]})
	if first == second {
		t.Fatalf("reference repair chose point %d twice", first)
	}
	if first != 1 || second != 2 {
		t.Errorf("reference repairs = (%d, %d), want (1, 2)", first, second)
	}
}

// benchmarkKMeans runs one kernel with K=10 on n points of one
// dimensionality, on the clustered mixture data the publish pipeline
// actually feeds the kernel.
func benchmarkKMeans(b *testing.B, n, dim int, ref bool) {
	data := MixtureData(n, dim, 10, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{K: 10, Rng: rand.New(rand.NewSource(int64(i)))}
		if ref {
			kmeansReference(data, cfg)
		} else {
			KMeans(data, cfg)
		}
	}
}

// BenchmarkKMeans compares the optimized kernel against the naive reference
// at k=10: at the default experiment scale (n=1000, d ∈ {2, 8, 64}), and at
// the shapes of a publish's coarse coefficient matrices (n=500, d ∈ {1, 4};
// the 128-d items of a 4-level publish give matrices of d = 1, 1, 2 and 4).
// Run with -benchmem to see the allocation gap.
func BenchmarkKMeans(b *testing.B) {
	for _, sh := range []struct{ n, dim int }{{500, 1}, {1000, 2}, {500, 4}, {1000, 8}, {1000, 64}} {
		b.Run(fmt.Sprintf("d=%d/opt", sh.dim), func(b *testing.B) { benchmarkKMeans(b, sh.n, sh.dim, false) })
		b.Run(fmt.Sprintf("d=%d/ref", sh.dim), func(b *testing.B) { benchmarkKMeans(b, sh.n, sh.dim, true) })
	}
}
