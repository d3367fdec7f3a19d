package core

import (
	"math"
	"math/rand"
	"testing"

	"hyperm/internal/can"
	"hyperm/internal/dataset"
	"hyperm/internal/eval"
	"hyperm/internal/flatindex"
	"hyperm/internal/overlay"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// canFactory builds CAN overlays with a deterministic per-level seed.
func canFactory(seed int64) OverlayFactory {
	return func(level, keyDim, peers int) (overlay.Network, error) {
		return can.Build(can.Config{
			Nodes: peers,
			Dim:   keyDim,
			Rng:   rand.New(rand.NewSource(seed + int64(level))),
		})
	}
}

// testSystem builds a published Hyper-M network over an ALOI-like corpus.
func testSystem(t testing.TB, peers, objects, views, bins, levels, k int, seed int64) (*System, [][]float64, *flatindex.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data, _ := dataset.ALOI(dataset.ALOIConfig{Objects: objects, Views: views, Bins: bins}, rng)
	sys, err := NewSystem(Config{
		Peers:           peers,
		Dim:             bins,
		Levels:          levels,
		ClustersPerPeer: k,
		Factory:         canFactory(seed),
		Rng:             rng,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Round-robin assignment keeps the test independent of the k-means
	// placement machinery.
	for i, x := range data {
		sys.AddPeerData(i%peers, []int{i}, [][]float64{x})
	}
	sys.DeriveBounds()
	sys.PublishAll()
	return sys, data, flatindex.New(data)
}

func TestNewSystemValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := Config{Peers: 4, Dim: 16, Levels: 3, ClustersPerPeer: 2, Factory: canFactory(1), Rng: rng}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero peers", func(c *Config) { c.Peers = 0 }},
		{"non-pow2 dim", func(c *Config) { c.Dim = 15 }},
		{"levels too high", func(c *Config) { c.Levels = 99 }},
		{"zero levels", func(c *Config) { c.Levels = 0 }},
		{"zero clusters", func(c *Config) { c.ClustersPerPeer = 0 }},
		{"negative C", func(c *Config) { c.C = -1 }},
		{"NaN C", func(c *Config) { c.C = math.NaN() }},
		{"infinite C", func(c *Config) { c.C = math.Inf(1) }},
		{"negative infinite C", func(c *Config) { c.C = math.Inf(-1) }},
		{"nil factory", func(c *Config) { c.Factory = nil }},
		{"nil rng", func(c *Config) { c.Rng = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewSystem(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := NewSystem(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPublishCounts(t *testing.T) {
	sys, _, _ := testSystem(t, 10, 20, 6, 32, 3, 4, 42)
	if got := sys.TotalItems(); got != 120 {
		t.Fatalf("TotalItems = %d, want 120", got)
	}
	for p := 0; p < 10; p++ {
		if got := sys.PeerItemCount(p); got != 12 {
			t.Errorf("peer %d holds %d items, want 12", p, got)
		}
	}
}

func TestPublishRequiresBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys, err := NewSystem(Config{Peers: 2, Dim: 8, Levels: 2, ClustersPerPeer: 1,
		Factory: canFactory(2), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sys.AddPeerData(0, []int{0}, [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without bounds")
		}
	}()
	sys.PublishPeer(0)
}

// The paper's headline retrieval guarantee: with the min-score policy and an
// unlimited peer budget, range queries have NO false dismissals and
// precision 1.0.
func TestRangeQueryNoFalseDismissalsAndPerfectPrecision(t *testing.T) {
	sys, data, truth := testSystem(t, 10, 30, 8, 32, 4, 5, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		q := data[rng.Intn(len(data))]
		eps := 0.01 + rng.Float64()*0.1
		want := truth.Range(q, eps)
		got := sys.RangeQuery(0, q, eps, RangeOptions{})
		p, r := eval.PrecisionRecall(got.Items, want)
		if r != 1 {
			t.Fatalf("trial %d (eps=%v): recall %v < 1 — false dismissal (got %d of %d)",
				trial, eps, r, len(got.Items), len(want))
		}
		if p != 1 {
			t.Fatalf("trial %d: precision %v < 1 — local filtering broken", trial, p)
		}
	}
}

// The same guarantee with every wavelet level of a 32-d corpus, for queries
// built to graze a cluster in the 16-d subspace: the query is a cluster's
// farthest member moved outward along that subspace's own direction, by a
// hair less than the radius, so the member is an answer while the query
// sphere covers a lens 1% or 0.5% of the cluster radius deep — a share of
// the cluster's volume far below 1e-16. Eq 1 must still score that cluster
// positive, or the min policy drops the member's peer.
func TestRangeQueryNoFalseDismissalsShallowLens(t *testing.T) {
	const l = 5 // D_4, 16-d
	sys, _, truth := testSystem(t, 10, 30, 8, 32, 6, 5, 11)
	conv := sys.Config().Convention
	trials := 0
	for p := 0; p < 10; p++ {
		ids, items := sys.PeerData(p)
		for _, ref := range sys.PublishedClusters(p, l) {
			if ref.Radius <= 0 {
				continue
			}
			// The member on the cluster's boundary and its outward direction.
			far, dir := -1, []float64(nil)
			for i, x := range items {
				xc := wavelet.SubspaceOf(x, l, conv)
				if math.Abs(vec.Dist(xc, ref.Center)-ref.Radius) <= 1e-12*ref.Radius {
					far, dir = i, vec.Sub(xc, ref.Center)
					break
				}
			}
			if far < 0 {
				continue
			}
			// w is the unit full-space vector whose only wavelet component
			// is dir, in subspace l; it moves a point's level-l coefficients
			// by scale per unit length and leaves every other level's alone.
			dec := wavelet.Decompose(make([]float64, 32), conv)
			copy(dec.Subspace(l), dir)
			w := dec.Reconstruct()
			vec.Scale(w, 1/vec.Norm(w))
			scale := vec.Norm(wavelet.SubspaceOf(w, l, conv))
			eps := ref.Radius / scale // the query's level-l radius is the cluster's
			for _, depth := range []float64{0.01, 0.005} {
				q, step := vec.Clone(items[far]), vec.Clone(w)
				vec.Scale(step, eps*(1-depth))
				vec.Add(q, step)
				want := truth.Range(q, eps)
				got := sys.RangeQuery(0, q, eps, RangeOptions{})
				if p, r := eval.PrecisionRecall(got.Items, want); r != 1 || p != 1 {
					t.Fatalf("item %d, lens %v of the radius deep: precision %v, recall %v (got %d of %d)",
						ids[far], depth, p, r, len(got.Items), len(want))
				}
				trials++
			}
		}
	}
	if trials < 10 {
		t.Fatalf("only %d grazing queries built", trials)
	}
}

// With a peer budget, recall can drop but precision must stay perfect, and
// recall must grow monotonically with the budget (Fig 10a's shape).
func TestRangeQueryBudgetMonotoneRecall(t *testing.T) {
	sys, data, truth := testSystem(t, 12, 30, 8, 32, 4, 5, 9)
	rng := rand.New(rand.NewSource(10))
	q := data[rng.Intn(len(data))]
	eps := 0.12
	want := truth.Range(q, eps)
	if len(want) < 3 {
		t.Skip("query radius found too few true results for a meaningful test")
	}
	prev := -1.0
	for _, budget := range []int{1, 2, 4, 8, 12} {
		got := sys.RangeQuery(0, q, eps, RangeOptions{MaxPeers: budget})
		p, r := eval.PrecisionRecall(got.Items, want)
		if p != 1 {
			t.Fatalf("budget %d: precision %v != 1", budget, p)
		}
		if r < prev-1e-9 {
			t.Fatalf("recall decreased with a larger budget: %v -> %v", prev, r)
		}
		prev = r
		if got.PeersContacted > budget {
			t.Fatalf("contacted %d peers with budget %d", got.PeersContacted, budget)
		}
	}
	if prev != 1 {
		t.Errorf("full budget should reach recall 1, got %v", prev)
	}
}

func TestPointQueryFindsExactItem(t *testing.T) {
	sys, data, _ := testSystem(t, 8, 20, 6, 32, 3, 4, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		id := rng.Intn(len(data))
		got := sys.RangeQuery(0, data[id], 0, RangeOptions{})
		found := false
		for _, g := range got.Items {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query for item %d missed it", id)
		}
	}
}

func TestKNNQueryQuality(t *testing.T) {
	sys, data, truth := testSystem(t, 10, 40, 10, 32, 4, 10, 13)
	rng := rand.New(rand.NewSource(14))
	var sumP, sumR float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		q := data[rng.Intn(len(data))]
		k := 10
		want := truth.KNN(q, k)
		got := sys.KNNQuery(0, q, k, KNNOptions{})
		p, r := eval.PrecisionRecall(got.Items, want)
		sumP += p
		sumR += r
	}
	avgP, avgR := sumP/trials, sumR/trials
	// The paper reports precision/recall balanced above 50% (Fig 10b).
	if avgR < 0.4 {
		t.Errorf("k-nn average recall %v too low", avgR)
	}
	if avgP < 0.3 {
		t.Errorf("k-nn average precision %v too low", avgP)
	}
	t.Logf("k-nn avg precision %.3f recall %.3f", avgP, avgR)
}

// The C knob (§6.1): larger C fetches more items, which cannot reduce recall
// and typically reduces precision.
func TestKNNCKnobTradeoff(t *testing.T) {
	sys, data, truth := testSystem(t, 10, 40, 10, 32, 4, 10, 15)
	rng := rand.New(rand.NewSource(16))
	var r1, r2, p1, p2, n float64
	for trial := 0; trial < 15; trial++ {
		q := data[rng.Intn(len(data))]
		want := truth.KNN(q, 10)
		a := sys.KNNQuery(0, q, 10, KNNOptions{C: 1})
		b := sys.KNNQuery(0, q, 10, KNNOptions{C: 2})
		pa, ra := eval.PrecisionRecall(a.Items, want)
		pb, rb := eval.PrecisionRecall(b.Items, want)
		p1 += pa
		p2 += pb
		r1 += ra
		r2 += rb
		n++
	}
	if r2 < r1-1e-9 {
		t.Errorf("average recall dropped when C doubled: C=1 %.3f, C=2 %.3f", r1/n, r2/n)
	}
	t.Logf("C=1: P=%.3f R=%.3f | C=2: P=%.3f R=%.3f", p1/n, r1/n, p2/n, r2/n)
}

func TestKNNSortedByDistance(t *testing.T) {
	sys, data, _ := testSystem(t, 8, 20, 6, 32, 3, 4, 17)
	q := data[0]
	got := sys.KNNQuery(0, q, 5, KNNOptions{})
	if len(got.Items) == 0 {
		t.Fatal("k-nn returned nothing")
	}
	lookup := sys.itemLookup()
	prev := -1.0
	for _, id := range got.Items {
		d := dist(q, lookup[id])
		if d < prev-1e-12 {
			t.Fatal("k-nn results not sorted by distance")
		}
		prev = d
	}
	// The nearest fetched item to the query (which is itself in the corpus)
	// must be the query item at distance 0.
	if got.Items[0] != 0 {
		t.Errorf("closest item is %d, want 0 (the query itself)", got.Items[0])
	}
}

func TestPostInsertDegradesGracefully(t *testing.T) {
	// Build with only part of the data, post-insert the rest, and verify
	// queries still find pre-existing items perfectly while post-inserted
	// ones may be missed (the Fig 10c setting).
	rng := rand.New(rand.NewSource(18))
	data, _ := dataset.ALOI(dataset.ALOIConfig{Objects: 30, Views: 8, Bins: 32}, rng)
	peers := 10
	pre := data[:180]
	post := data[180:]
	sys, err := NewSystem(Config{
		Peers: peers, Dim: 32, Levels: 3, ClustersPerPeer: 4,
		Factory: canFactory(18), Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pre {
		sys.AddPeerData(i%peers, []int{i}, [][]float64{x})
	}
	sys.DeriveBounds()
	sys.PublishAll()
	for j, x := range post {
		sys.PostInsert(j%peers, 180+j, x)
	}
	if sys.TotalItems() != len(data) {
		t.Fatalf("TotalItems = %d, want %d", sys.TotalItems(), len(data))
	}
	truthPre := flatindex.New(pre)
	qrng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		q := pre[qrng.Intn(len(pre))]
		eps := 0.05 + qrng.Float64()*0.05
		want := truthPre.Range(q, eps)
		got := sys.RangeQuery(0, q, eps, RangeOptions{})
		// All pre-existing items must still be found (their summaries are
		// intact); post-inserted items may appear too — they are genuine
		// matches found opportunistically on contacted peers.
		found := map[int]bool{}
		for _, id := range got.Items {
			found[id] = true
		}
		for _, id := range want {
			if !found[id] {
				t.Fatalf("pre-existing item %d lost after post-insertion", id)
			}
		}
	}
}

func TestAggregationPolicies(t *testing.T) {
	for _, agg := range []Aggregation{AggMin, AggSum, AggMean} {
		t.Run(agg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20))
			data, _ := dataset.ALOI(dataset.ALOIConfig{Objects: 15, Views: 6, Bins: 32}, rng)
			sys, err := NewSystem(Config{
				Peers: 6, Dim: 32, Levels: 3, ClustersPerPeer: 3,
				Aggregation: agg, Factory: canFactory(20), Rng: rng,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range data {
				sys.AddPeerData(i%6, []int{i}, [][]float64{x})
			}
			sys.DeriveBounds()
			sys.PublishAll()
			got := sys.RangeQuery(0, data[0], 0.1, RangeOptions{})
			if len(got.Items) == 0 {
				t.Error("query returned nothing")
			}
		})
	}
	if AggMin.String() != "min" || Aggregation(9).String() == "" {
		t.Error("aggregation String broken")
	}
}

// Min-score aggregation must prune at least as hard as sum: its candidate
// set is a subset.
func TestMinPrunesHarderThanSum(t *testing.T) {
	scores := map[int][]float64{
		1: {2, 3, 4},
		2: {0, 5, 5}, // missing from level 0
		3: {1, 1, 1},
	}
	min := sortScores(copyScores(scores), AggMin)
	sum := sortScores(copyScores(scores), AggSum)
	if len(min) != 2 {
		t.Errorf("min kept %d peers, want 2 (peer 2 pruned)", len(min))
	}
	if len(sum) != 3 {
		t.Errorf("sum kept %d peers, want 3", len(sum))
	}
	if min[0].Peer != 1 || min[0].Score != 2 {
		t.Errorf("min top = %+v, want peer 1 score 2", min[0])
	}
}

func copyScores(m map[int][]float64) map[int][]float64 {
	out := make(map[int][]float64, len(m))
	for k, v := range m {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

func TestQueryValidation(t *testing.T) {
	sys, data, _ := testSystem(t, 4, 10, 4, 32, 2, 2, 21)
	for _, fn := range []func(){
		func() { sys.RangeQuery(0, data[0][:5], 0.1, RangeOptions{}) },
		func() { sys.RangeQuery(0, data[0], -1, RangeOptions{}) },
		func() { sys.KNNQuery(0, data[0][:5], 3, KNNOptions{}) },
		func() { sys.KNNQuery(0, data[0], 0, KNNOptions{}) },
		func() { sys.AddPeerData(0, []int{1}, [][]float64{{1}}) },
		func() { sys.AddPeerData(0, []int{1, 2}, [][]float64{{1}}) },
		func() { sys.PostInsert(0, 99, []float64{1, 2}) },
		func() { sys.SetBounds([]Bounds{{0, 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSetBoundsExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sys, err := NewSystem(Config{Peers: 2, Dim: 4, Levels: 2, ClustersPerPeer: 1,
		Factory: canFactory(22), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sys.AddPeerData(0, []int{0}, [][]float64{{0.1, 0.2, 0.3, 0.4}})
	sys.AddPeerData(1, []int{1}, [][]float64{{0.9, 0.8, 0.7, 0.6}})
	sys.SetBounds([]Bounds{{0, 1}, {-0.5, 0.5}})
	sys.PublishAll()
	got := sys.RangeQuery(0, []float64{0.1, 0.2, 0.3, 0.4}, 0.01, RangeOptions{})
	if len(got.Items) != 1 || got.Items[0] != 0 {
		t.Errorf("query with explicit bounds returned %v", got.Items)
	}
}

// Publishing clusters instead of items must cost far fewer insert operations:
// the cluster count is Peers*Levels*K regardless of corpus size.
func TestPublishClusterCountIndependentOfCorpus(t *testing.T) {
	sys, _, _ := testSystem(t, 10, 40, 10, 32, 3, 5, 23)
	st := sys.PublishAll() // republish to measure
	if st.ClustersPublished > 10*3*5 {
		t.Errorf("published %d clusters, want <= %d", st.ClustersPublished, 10*3*5)
	}
	if len(st.HopsPerLevel) != 3 {
		t.Errorf("HopsPerLevel has %d entries", len(st.HopsPerLevel))
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Guard the wavelet convention default: the zero Config value must use the
// paper's averaging Haar.
func TestDefaultConventionIsAveraging(t *testing.T) {
	var c Config
	if c.Convention != wavelet.Averaging {
		t.Error("default convention should be the paper's averaging Haar")
	}
}

func BenchmarkPublishPeer(b *testing.B) {
	sys, _, _ := testSystem(b, 10, 40, 10, 64, 4, 10, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PublishPeer(i % 10)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	sys, data, _ := testSystem(b, 10, 40, 10, 64, 4, 10, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RangeQuery(i%10, data[i%len(data)], 0.1, RangeOptions{})
	}
}

func BenchmarkKNNQuery(b *testing.B) {
	sys, data, _ := testSystem(b, 10, 40, 10, 64, 4, 10, 33)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.KNNQuery(i%10, data[i%len(data)], 10, KNNOptions{})
	}
}

func TestKNNMaxPeersCap(t *testing.T) {
	sys, data, _ := testSystem(t, 10, 30, 8, 32, 3, 5, 61)
	res := sys.KNNQuery(0, data[4], 10, KNNOptions{MaxPeers: 2})
	if res.PeersContacted > 2 {
		t.Errorf("contacted %d peers with cap 2", res.PeersContacted)
	}
	uncapped := sys.KNNQuery(0, data[4], 10, KNNOptions{})
	if len(uncapped.Items) < len(res.Items) {
		t.Errorf("capping peers should not increase fetch: %d vs %d",
			len(uncapped.Items), len(res.Items))
	}
}

func TestOverlayAccessor(t *testing.T) {
	sys, _, _ := testSystem(t, 4, 10, 4, 32, 3, 2, 63)
	for l := 0; l < 3; l++ {
		ov := sys.Overlay(l)
		if ov == nil || ov.Size() != 4 {
			t.Fatalf("overlay %d wrong: %v", l, ov)
		}
	}
}

func TestKeyRadiusRequiresBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sys, err := NewSystem(Config{Peers: 2, Dim: 8, Levels: 2, ClustersPerPeer: 1,
		Factory: canFactory(64), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KeyRadius without bounds should panic")
		}
	}()
	sys.KeyRadius(0, 1)
}

func TestQueryFromDeadPeerPanics(t *testing.T) {
	sys, data, _ := testSystem(t, 6, 12, 4, 32, 2, 2, 65)
	if _, err := sys.LeavePeer(1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("query from departed peer should panic")
		}
	}()
	sys.RangeQuery(1, data[0], 0.1, RangeOptions{})
}
