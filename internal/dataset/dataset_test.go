package dataset

import (
	"math"
	"math/rand"
	"testing"

	"hyperm/internal/vec"
)

func TestMarkovShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := Markov(MarkovConfig{N: 100, Dim: 512}, rng)
	if len(data) != 100 {
		t.Fatalf("N = %d", len(data))
	}
	for _, v := range data {
		if len(v) != 512 {
			t.Fatalf("dim = %d", len(v))
		}
		for _, x := range v {
			if x < 0 || math.IsNaN(x) {
				t.Fatalf("invalid value %v", x)
			}
		}
	}
}

// The Markov walk should look like Fig 7b: consecutive coordinates are
// strongly correlated (small steps), so lag-1 autocorrelation must be high.
func TestMarkovAutocorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := Markov(MarkovConfig{N: 50, Dim: 256}, rng)
	var num, den float64
	for _, v := range data {
		mean := 0.0
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		for j := 0; j+1 < len(v); j++ {
			num += (v[j] - mean) * (v[j+1] - mean)
		}
		for j := range v {
			den += (v[j] - mean) * (v[j] - mean)
		}
	}
	if den == 0 {
		t.Skip("degenerate data")
	}
	if r := num / den; r < 0.5 {
		t.Errorf("lag-1 autocorrelation %v, want > 0.5 for a random walk", r)
	}
}

func TestMarkovDeterministic(t *testing.T) {
	a := Markov(MarkovConfig{N: 10, Dim: 32}, rand.New(rand.NewSource(5)))
	b := Markov(MarkovConfig{N: 10, Dim: 32}, rand.New(rand.NewSource(5)))
	for i := range a {
		if !vec.ApproxEqual(a[i], b[i], 0) {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestMarkovPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Markov(MarkovConfig{N: 1, Dim: 0}, rand.New(rand.NewSource(1))) },
		func() { Markov(MarkovConfig{N: 1, Dim: 4}, nil) },
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

func TestALOIShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, labels := ALOI(ALOIConfig{Objects: 20, Views: 12, Bins: 64}, rng)
	if len(data) != 240 || len(labels) != 240 {
		t.Fatalf("got %d items, %d labels", len(data), len(labels))
	}
	for i, h := range data {
		if len(h) != 64 {
			t.Fatalf("bins = %d", len(h))
		}
		var sum float64
		for _, v := range h {
			if v < 0 {
				t.Fatalf("negative bin value %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("histogram %d sums to %v, want 1", i, sum)
		}
	}
	// Labels group views: items 0..11 are object 0, etc.
	if labels[0] != 0 || labels[11] != 0 || labels[12] != 1 {
		t.Errorf("label layout unexpected: %v...", labels[:13])
	}
}

// The property the retrieval experiments rely on: views of the same object
// are, on average, much closer to each other than to views of other objects.
func TestALOIIntraVsInterObjectDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, labels := ALOI(ALOIConfig{Objects: 30, Views: 8, Bins: 64}, rng)
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < len(data); i++ {
		for j := i + 1; j < len(data); j += 7 { // sample pairs
			d := vec.Dist(data[i], data[j])
			if labels[i] == labels[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra*2 > inter {
		t.Errorf("intra-object distance %v vs inter-object %v: clusters not tight enough", intra, inter)
	}
}

func TestAssignToPeersCoversAllItems(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := Markov(MarkovConfig{N: 2000, Dim: 32}, rng)
	asg := AssignToPeers(data, AssignConfig{Peers: 20}, rng)
	if len(asg.PeerItems) != 20 {
		t.Fatalf("peers = %d", len(asg.PeerItems))
	}
	seen := make([]bool, len(data))
	for p, items := range asg.PeerItems {
		for _, i := range items {
			if seen[i] {
				t.Fatalf("item %d assigned twice", i)
			}
			seen[i] = true
			if asg.ItemPeer[i] != p {
				t.Fatalf("ItemPeer inconsistent for %d", i)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d unassigned", i)
		}
	}
}

func TestAssignToPeersSkewDropsItems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := Markov(MarkovConfig{N: 1000, Dim: 16}, rng)
	asg := AssignToPeers(data, AssignConfig{Peers: 20, Clusters: 10, KeepClusters: 2}, rng)
	assigned := 0
	for _, items := range asg.PeerItems {
		assigned += len(items)
	}
	if assigned == 0 {
		t.Fatal("skewed assignment kept nothing")
	}
	if assigned == len(data) {
		t.Error("KeepClusters=2 of 10 should drop some items")
	}
	// ItemPeer must be -1 exactly for dropped items.
	dropped := 0
	for _, p := range asg.ItemPeer {
		if p == -1 {
			dropped++
		}
	}
	if dropped != len(data)-assigned {
		t.Errorf("dropped %d, want %d", dropped, len(data)-assigned)
	}
}

// §5.1: each cluster is spread over 8-10 peers, so each peer should hold
// items from only a few clusters — verify peers have focused interests by
// checking that no peer holds items from every cluster (with enough
// clusters).
func TestAssignToPeersFocusedInterests(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := Markov(MarkovConfig{N: 5000, Dim: 16}, rng)
	cfg := AssignConfig{Peers: 100, Clusters: 14}
	asg := AssignToPeers(data, cfg, rng)
	if asg.Clusters < 2 {
		t.Skip("degenerate clustering")
	}
	// With 14 clusters spread over <=10 of 100 peers each, the expected
	// number of clusters per peer is ~1.4; assert nobody is near 14.
	for p, items := range asg.PeerItems {
		if len(items) > len(data)/2 {
			t.Errorf("peer %d holds %d items — distribution far too skewed", p, len(items))
		}
	}
}

func TestAssignPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := [][]float64{{1, 2}}
	for _, fn := range []func(){
		func() { AssignToPeers(data, AssignConfig{Peers: 0}, rng) },
		func() { AssignToPeers(data, AssignConfig{Peers: 2}, nil) },
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

func BenchmarkMarkov1000x512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Markov(MarkovConfig{N: 1000, Dim: 512}, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkALOI100x12x64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ALOI(ALOIConfig{Objects: 100, Views: 12, Bins: 64}, rand.New(rand.NewSource(int64(i))))
	}
}
