package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hyperm/internal/cluster"
	"hyperm/internal/wavelet"
)

// frozenPublishAll is PublishAll with steps i1–i2 as they ran before the
// coarse transform: every item decomposed in full by wavelet.Decompose, its
// extrema read off each decomposition, and each level's matrix copied out of
// the decompositions row by row. Seeds, the bounds install and the commits
// are PublishAll's.
func frozenPublishAll(s *System) PublishStats {
	seeds := make([]int64, len(s.peers))
	for p := range seeds {
		seeds[p] = s.clusterSeed()
	}
	preps := make([]preparedPeer, len(s.peers))
	for p, ps := range s.peers {
		rows := ps.store.Rows()
		if len(rows) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seeds[p]))
		decs := make([]*wavelet.Decomposition, len(rows))
		for i, x := range rows {
			decs[i] = wavelet.Decompose(x, s.cfg.Convention)
		}
		prep := preparedPeer{levels: make([][]cluster.Cluster, s.cfg.Levels), extrema: newExtrema(s.cfg.Levels)}
		for _, dec := range decs {
			for l := range prep.extrema {
				for _, c := range dec.Subspace(l) {
					prep.extrema.widen(l, c, c)
				}
			}
		}
		for l := range prep.levels {
			coeffs := make([][]float64, len(decs))
			for r, dec := range decs {
				coeffs[r] = slices.Clone(dec.Subspace(l))
			}
			prep.levels[l] = cluster.KMeans(coeffs, cluster.Config{K: s.cfg.ClustersPerPeer, Rng: rng}).Clusters
		}
		preps[p] = prep
	}
	if s.mappers == nil {
		parts := make([]extrema, len(preps))
		for p, prep := range preps {
			parts[p] = prep.extrema
		}
		s.installExtrema(parts)
	}
	total := PublishStats{HopsPerLevel: make([]int, s.cfg.Levels)}
	for p := range s.peers {
		st := s.commitPeer(p, preps[p])
		total.ClustersPublished += st.ClustersPublished
		total.Hops += st.Hops
		for l, h := range st.HopsPerLevel {
			total.HopsPerLevel[l] += h
		}
	}
	return total
}

// TestPublishAllMatchesFrozenPipeline publishes the disseminate workload's
// shape (64 peers of 128-d Markov items, 4 levels, 10 clusters; one peer
// empty, one with a single item) through PublishAll and through the frozen
// full-decomposition pipeline: the report, every published ClusterRef with
// its sequence number, and the installed bounds (float bits) must be equal,
// and DeriveBounds must install the same bounds.
func TestPublishAllMatchesFrozenPipeline(t *testing.T) {
	const peers, dim = 64, 128
	build := func() *System {
		rng := rand.New(rand.NewSource(23))
		sys, err := NewSystem(Config{Peers: peers, Dim: dim, Levels: 4, ClustersPerPeer: 10, Factory: canFactory(23), Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		data := rand.New(rand.NewSource(24))
		next := 0
		for p := range peers {
			n := data.Intn(1000)
			switch p {
			case 5:
				n = 0
			case 6:
				n = 1
			}
			rows := markovRows(data, n, dim)
			ids := make([]int, len(rows))
			for i := range ids {
				ids[i] = next
				next++
			}
			if len(rows) > 0 {
				sys.AddPeerData(p, ids, rows)
			}
		}
		return sys
	}
	got, want, derived := build(), build(), build()
	gotStats, wantStats := got.PublishAll(), frozenPublishAll(want)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("PublishAll reports %+v, the frozen pipeline %+v", gotStats, wantStats)
	}
	derived.DeriveBounds()
	for name, sys := range map[string]*System{"PublishAll": got, "DeriveBounds": derived} {
		b, w := sys.Bounds(), want.Bounds()
		for l := range w {
			if math.Float64bits(b[l].Lo) != math.Float64bits(w[l].Lo) || math.Float64bits(b[l].Hi) != math.Float64bits(w[l].Hi) {
				t.Errorf("%s: level %d bounds %+v, frozen pipeline %+v", name, l, b[l], w[l])
			}
		}
	}
	refs := 0
	for p := range peers {
		gp, wp := got.peers[p], want.peers[p]
		if !reflect.DeepEqual(gp.published, wp.published) || !reflect.DeepEqual(gp.pubSeqs, wp.pubSeqs) {
			t.Fatalf("peer %d: published %v (seqs %v), frozen pipeline %v (seqs %v)", p, gp.published, gp.pubSeqs, wp.published, wp.pubSeqs)
		}
		for _, lv := range gp.published {
			refs += len(lv)
		}
	}
	if refs != gotStats.ClustersPublished || refs == 0 {
		t.Fatalf("%d refs compared, %d published", refs, gotStats.ClustersPublished)
	}
}
