package hyperm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hyperm/internal/dataset"
)

// buildNet creates a small published network over ALOI-like data and returns
// it with the corpus.
func buildNet(t testing.TB) (*Network, [][]float64) {
	t.Helper()
	net, data := unpublishedNet(t)
	if _, err := net.Publish(); err != nil {
		t.Fatal(err)
	}
	return net, data
}

// unpublishedNet is buildNet before its Publish.
func unpublishedNet(t testing.TB) (*Network, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: 30, Views: 8, Bins: 32}, rng)
	net, err := New(Options{Peers: 10, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		if err := net.AddItems(labels[i]%10, []int{i}, [][]float64{x}); err != nil {
			t.Fatal(err)
		}
	}
	return net, data
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Peers: 0, Dim: 32}); err == nil {
		t.Error("expected error for zero peers")
	}
	if _, err := New(Options{Peers: 2, Dim: 33}); err == nil {
		t.Error("expected error for non-pow2 dim")
	}
}

func TestDefaultsApplied(t *testing.T) {
	net, err := New(Options{Peers: 3, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dim 8 has 4 subspaces; default Levels=4 fits exactly.
	if net.opts.Levels != 4 || net.opts.ClustersPerPeer != 10 {
		t.Errorf("defaults not applied: %+v", net.opts)
	}
	// Dim 4 has only 3 subspaces; Levels must clamp.
	net2, err := New(Options{Peers: 3, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net2.opts.Levels != 3 {
		t.Errorf("Levels should clamp to 3 for Dim=4, got %d", net2.opts.Levels)
	}
}

func TestLifecycleErrors(t *testing.T) {
	net, err := New(Options{Peers: 2, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := net.Publish(); err == nil {
		t.Error("publish with no items should fail")
	}
	if _, err := net.Range(0, v, 1); err == nil {
		t.Error("query before publish should fail")
	}
	if err := net.Insert(0, 1, v); err == nil {
		t.Error("Insert before publish should fail")
	}
	if err := net.AddItems(5, []int{0}, [][]float64{v}); err == nil {
		t.Error("out-of-range peer should fail")
	}
	if err := net.AddItems(0, []int{0}, [][]float64{{1}}); err == nil {
		t.Error("wrong dim should fail")
	}
	if err := net.AddItems(0, []int{0, 1}, [][]float64{v}); err == nil {
		t.Error("id/vector length mismatch should fail")
	}
	if err := net.AddItems(0, []int{0}, [][]float64{v}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddItems(1, []int{0}, [][]float64{v}); err == nil {
		t.Error("duplicate id should fail")
	}
	if _, err := net.Publish(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Publish(); err == nil {
		t.Error("double publish should fail")
	}
	if err := net.AddItems(0, []int{2}, [][]float64{v}); err == nil {
		t.Error("AddItems after publish should fail")
	}
	if err := net.Insert(0, 0, v); err == nil {
		t.Error("duplicate id on Insert should fail")
	}
	if err := net.Insert(0, 3, v); err != nil {
		t.Errorf("valid Insert failed: %v", err)
	}
	if _, err := net.Range(0, []float64{1}, 1); err == nil {
		t.Error("wrong query dim should fail")
	}
	if _, err := net.Range(0, v, -1); err == nil {
		t.Error("negative radius should fail")
	}
	if _, err := net.KNN(0, v, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := net.KNNWithC(0, v, 2, -1); err == nil {
		t.Error("negative C should fail")
	}
}

// TestEndToEndRangeAndKNN runs both query kinds through the facade; the
// other substrates and conventions run the same queries in internal/core.
func TestEndToEndRangeAndKNN(t *testing.T) {
	net, data := buildNet(t)
	q := data[17]
	ans, err := net.Range(0, q, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(ans.Items) {
		t.Error("Range items not sorted")
	}
	found := false
	for _, id := range ans.Items {
		if id == 17 {
			found = true
		}
	}
	if !found {
		t.Error("Range missed the query item itself")
	}
	knn, err := net.KNN(0, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(knn.Items) == 0 || knn.Items[0] != 17 {
		t.Errorf("KNN top hit = %v, want item 17", knn.Items)
	}
	if knn.PeersContacted < 1 || ans.PeersContacted < 1 {
		t.Error("queries should contact at least one peer")
	}
}

func TestPublishReport(t *testing.T) {
	net, _ := buildNet(t)
	// buildNet already published; rebuild to capture the report.
	net2, data := func() (*Network, [][]float64) {
		rng := rand.New(rand.NewSource(6))
		data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: 20, Views: 6, Bins: 32}, rng)
		n, err := New(Options{Peers: 8, Dim: 32, Levels: 3, ClustersPerPeer: 4, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range data {
			if err := n.AddItems(labels[i]%8, []int{i}, [][]float64{x}); err != nil {
				t.Fatal(err)
			}
		}
		return n, data
	}()
	rep, err := net2.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items != len(data) {
		t.Errorf("report items %d, want %d", rep.Items, len(data))
	}
	if rep.Clusters == 0 || rep.Clusters > 8*3*4 {
		t.Errorf("clusters = %d out of expected range", rep.Clusters)
	}
	if len(rep.HopsPerLevel) != 3 {
		t.Errorf("HopsPerLevel has %d entries", len(rep.HopsPerLevel))
	}
	if rep.HopsPerItem() <= 0 {
		t.Errorf("HopsPerItem = %v", rep.HopsPerItem())
	}
	if (PublishReport{}).HopsPerItem() != 0 {
		t.Error("empty report HopsPerItem should be 0")
	}
	_ = net
}

// Publish decomposes each item once, reading the key-space bounds off the
// decompositions it clusters; the network must be bit for bit the one that
// DeriveBounds followed by PublishAll builds on the same seed.
func TestPublishDerivesBoundsFromItsDecompositions(t *testing.T) {
	net, data := unpublishedNet(t)
	rep, err := net.Publish()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := unpublishedNet(t)
	ref.sys.DeriveBounds()
	st := ref.sys.PublishAll()
	ref.published = true

	got, want := net.sys.Bounds(), ref.sys.Bounds()
	if len(got) != len(want) {
		t.Fatalf("%d levels of bounds, want %d", len(got), len(want))
	}
	for l := range want {
		if math.Float64bits(got[l].Lo) != math.Float64bits(want[l].Lo) || math.Float64bits(got[l].Hi) != math.Float64bits(want[l].Hi) {
			t.Fatalf("level %d bounds %v, DeriveBounds gave %v", l, got[l], want[l])
		}
	}
	if rep.Clusters != st.ClustersPublished || rep.OverlayHops != st.Hops || !reflect.DeepEqual(rep.HopsPerLevel, st.HopsPerLevel) {
		t.Fatalf("report %+v, DeriveBounds + PublishAll %+v", rep, st)
	}
	for p := 0; p < net.Peers(); p++ {
		if !reflect.DeepEqual(net.sys.PublishedAll(p), ref.sys.PublishedAll(p)) || !reflect.DeepEqual(net.sys.PublishedSeqs(p), ref.sys.PublishedSeqs(p)) {
			t.Fatalf("peer %d published different summaries", p)
		}
	}
	a, errA := net.Range(0, data[3], 0.1)
	b, errB := ref.Range(0, data[3], 0.1)
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("range answers differ: %+v vs %+v", a, b)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		net, data := buildNet(t)
		ans, err := net.Range(0, data[3], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Items
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed gave different answers: %v vs %v", a, b)
	}
}

// ExampleNew demonstrates the minimal end-to-end flow.
func ExampleNew() {
	net, err := New(Options{Peers: 4, Dim: 8, Levels: 3, ClustersPerPeer: 2, Seed: 42})
	if err != nil {
		panic(err)
	}
	// Two peers with two items each.
	net.AddItems(0, []int{0, 1}, [][]float64{
		{1, 1, 1, 1, 0, 0, 0, 0},
		{0, 0, 0, 0, 1, 1, 1, 1},
	})
	net.AddItems(1, []int{2, 3}, [][]float64{
		{1, 1, 1, 1, 0.1, 0, 0, 0},
		{5, 5, 5, 5, 5, 5, 5, 5},
	})
	if _, err := net.Publish(); err != nil {
		panic(err)
	}
	ans, err := net.Range(0, []float64{1, 1, 1, 1, 0, 0, 0, 0}, 0.2)
	if err != nil {
		panic(err)
	}
	fmt.Println(ans.Items)
	// Output: [0 2]
}

func TestFailPeer(t *testing.T) {
	net, data := buildNet(t)
	if net.AlivePeers() != 10 {
		t.Fatalf("AlivePeers = %d", net.AlivePeers())
	}
	if _, err := net.FailPeer(99); err == nil {
		t.Error("out-of-range FailPeer should error")
	}
	lost, err := net.FailPeer(3)
	if err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Error("failing a publishing peer should lose index records")
	}
	if net.AlivePeers() != 9 {
		t.Errorf("AlivePeers = %d after one failure", net.AlivePeers())
	}
	// Failing twice is a no-op.
	lost2, err := net.FailPeer(3)
	if err != nil || lost2 != 0 {
		t.Errorf("double failure: lost=%d err=%v", lost2, err)
	}
	// Queries still work and never return the dead peer's items.
	ans, err := net.Range(0, data[0], 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ans.Items {
		// buildNet assigns item i to peer labels[i]%10 where labels[i]=i/8.
		if (id/8)%10 == 3 {
			t.Errorf("item %d belongs to the failed peer but was returned", id)
		}
	}
}

func TestFailPeerBeforePublishErrors(t *testing.T) {
	net, err := New(Options{Peers: 2, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.FailPeer(0); err == nil {
		t.Error("FailPeer before publish should error")
	}
}

func TestLeavePeerGraceful(t *testing.T) {
	net, data := buildNet(t)
	msgs, err := net.LeavePeer(4)
	if err != nil {
		t.Fatal(err)
	}
	if msgs == 0 {
		t.Error("graceful leave should hand records over")
	}
	if net.AlivePeers() != 9 {
		t.Errorf("AlivePeers = %d", net.AlivePeers())
	}
	if _, err := net.LeavePeer(4); err == nil {
		t.Error("double leave should error")
	}
	// Graceful leave preserves other peers' summaries: survivors' items
	// remain perfectly retrievable (no false dismissals).
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 8; trial++ {
		qi := rng.Intn(len(data))
		if (qi/8)%10 == 4 {
			continue // the departed peer's items are gone with it
		}
		ans, err := net.Range(0, data[qi], 0.001)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range ans.Items {
			if id == qi {
				found = true
			}
		}
		if !found {
			t.Fatalf("survivor item %d lost after graceful departure", qi)
		}
	}
}

func TestLookup(t *testing.T) {
	net, data := buildNet(t)
	ids, err := net.Lookup(0, data[9])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if id == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("Lookup missed exact item: %v", ids)
	}
}

// TestFacadeRefusesNonFinite: an item with a NaN or ±Inf coordinate would put
// a NaN into its wavelet keys, and a query with a NaN coordinate does, which
// the overlay refuses with a panic. The facade refuses both up front, and a
// NaN radius and a NaN or infinite C with them, instead of panicking on a
// worker or answering nothing.
// A query point at infinity stays a query: it is far from every item.
func TestFacadeRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	at := func(i int, x float64) []float64 {
		v := make([]float64, 32)
		v[i] = x
		return v
	}
	for _, tc := range []struct {
		name string
		run  func(net *Network, fresh *Network) error
	}{
		{"AddItems NaN", func(_, fresh *Network) error { return fresh.AddItems(0, []int{-1}, [][]float64{at(3, nan)}) }},
		{"AddItems +Inf", func(_, fresh *Network) error { return fresh.AddItems(0, []int{-1}, [][]float64{at(0, inf)}) }},
		{"Insert NaN", func(net, _ *Network) error { return net.Insert(0, -1, at(31, nan)) }},
		{"Insert -Inf", func(net, _ *Network) error { return net.Insert(0, -1, at(7, -inf)) }},
		{"Range NaN coordinate", func(net, _ *Network) error { _, err := net.Range(0, at(5, nan), 0.1); return err }},
		{"Range NaN radius", func(net, _ *Network) error { _, err := net.Range(0, at(5, 0), nan); return err }},
		{"RangeBudget NaN radius", func(net, _ *Network) error { _, err := net.RangeBudget(0, at(5, 0), nan, 3); return err }},
		{"Lookup NaN coordinate", func(net, _ *Network) error { _, err := net.Lookup(0, at(0, nan)); return err }},
		{"KNN NaN coordinate", func(net, _ *Network) error { _, err := net.KNN(0, at(9, nan), 3); return err }},
		{"KNNWithC NaN coordinate", func(net, _ *Network) error { _, err := net.KNNWithC(0, at(9, nan), 3, 2); return err }},
		{"KNNWithC NaN C", func(net, _ *Network) error { _, err := net.KNNWithC(0, at(9, 0), 3, nan); return err }},
		{"KNNWithC +Inf C", func(net, _ *Network) error { _, err := net.KNNWithC(0, at(9, 0), 3, inf); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, _ := buildNet(t)
			fresh, _ := unpublishedNet(t)
			items := net.Items()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = tc.run(net, fresh)
			}()
			if err == nil {
				t.Fatal("accepted")
			}
			if net.Items() != items || fresh.Items() != items {
				t.Errorf("a refused call changed the item count: %d and %d, want %d", net.Items(), fresh.Items(), items)
			}
		})
	}
	net, _ := buildNet(t)
	if _, err := net.Range(0, at(2, inf), 0.1); err != nil {
		t.Errorf("a query point at infinity was refused: %v", err)
	}
	if _, err := net.KNN(0, at(2, -inf), 3); err != nil {
		t.Errorf("a k-nn query point at infinity was refused: %v", err)
	}
}
