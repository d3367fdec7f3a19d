package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyperm/internal/baton"
	"hyperm/internal/can"
	"hyperm/internal/dataset"
	"hyperm/internal/overlay"
	"hyperm/internal/ring"
	"hyperm/internal/wavelet"
)

// End to end over each substrate and wavelet convention, from a corpus spread
// over the peers by object label: the paper's configuration and its ablations.

// substrates are the overlay factories, each seeded per level from seed.
func substrates(seed int64) []struct {
	name string
	f    OverlayFactory
} {
	level := func(l int) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + int64(l))) }
	return []struct {
		name string
		f    OverlayFactory
	}{
		{"CAN", func(l, keyDim, peers int) (overlay.Network, error) {
			return can.Build(can.Config{Nodes: peers, Dim: keyDim, Rng: level(l)})
		}},
		{"ring", func(l, keyDim, peers int) (overlay.Network, error) {
			return ring.Build(ring.Config{Nodes: peers, Dim: keyDim, Rng: level(l)})
		}},
		{"BATON", func(l, keyDim, peers int) (overlay.Network, error) {
			return baton.Build(baton.Config{Nodes: peers, Dim: keyDim, Rng: level(l)})
		}},
	}
}

// labelledSystem publishes objects×views ALOI-like items of 32 bins over
// peers, item i on peer label(i) mod peers.
func labelledSystem(t *testing.T, peers, objects, views int, conv wavelet.Convention, f OverlayFactory, seed int64) (*System, [][]float64) {
	t.Helper()
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: objects, Views: views, Bins: 32}, rand.New(rand.NewSource(seed)))
	sys, err := NewSystem(Config{Peers: peers, Dim: 32, Levels: 3, ClustersPerPeer: 4,
		Convention: conv, Factory: f, Rng: rand.New(rand.NewSource(seed + 1))})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		sys.AddPeerData(labels[i]%peers, []int{i}, [][]float64{x})
	}
	sys.DeriveBounds()
	sys.PublishAll()
	return sys, data
}

func TestEndToEndRangeAndKNN(t *testing.T) {
	for _, sub := range substrates(5) {
		t.Run(sub.name, func(t *testing.T) {
			sys, data := labelledSystem(t, 10, 30, 8, wavelet.Averaging, sub.f, 5)
			q := data[17]
			ans := sys.RangeQuery(0, q, 0.08, RangeOptions{})
			if !sort.IntsAreSorted(ans.Items) {
				t.Error("Range items not sorted")
			}
			if !slices.Contains(ans.Items, 17) {
				t.Error("Range missed the query item itself")
			}
			knn := sys.KNNQuery(0, q, 5, KNNOptions{})
			if len(knn.Items) == 0 || knn.Items[0] != 17 {
				t.Errorf("KNN top hit = %v, want item 17", knn.Items)
			}
			if knn.PeersContacted < 1 || ans.PeersContacted < 1 {
				t.Error("queries should contact at least one peer")
			}
		})
	}
}

func TestWaveletOptionEndToEnd(t *testing.T) {
	onCAN := substrates(5)[0].f
	for _, w := range []wavelet.Convention{wavelet.Averaging, wavelet.Orthonormal, wavelet.Daubechies4} {
		t.Run(w.String(), func(t *testing.T) {
			sys, data := labelledSystem(t, 8, 20, 6, w, onCAN, 5)
			if ans := sys.RangeQuery(0, data[5], 0.05, RangeOptions{}); !slices.Contains(ans.Items, 5) {
				t.Errorf("convention %v missed the query item", w)
			}
		})
	}
}
