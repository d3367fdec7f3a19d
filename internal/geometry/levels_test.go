package geometry_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/geometry"
	"hyperm/internal/overlay"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// lastSearch is the in-memory backend of a core.System that keeps each
// level's latest search result: after a k-nn plan, the cluster set its final
// widening pass handed Eq 8.
type lastSearch struct {
	sys  *core.System
	last [][]overlay.Entry
}

func (b *lastSearch) Scope(context.Context, []core.Sphere) core.Backend { return b }

func (b *lastSearch) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	entries, hops := b.sys.Overlay(level).SearchSphere(from, key, radius)
	b.last[level] = append([]overlay.Entry(nil), entries...)
	return entries, hops, nil
}

func (b *lastSearch) FetchRange(context.Context, int, []int, []float64, float64) ([]core.RangeIDs, []error) {
	panic("planning fetches nothing")
}

func (b *lastSearch) FetchKNN(context.Context, int, []int, []int, []float64) ([][]core.ItemDist, []error) {
	panic("planning fetches nothing")
}

// levelSet is one level's Eq 8 input of one k-nn query: the spheres its
// final pass discovered and the radius it solved.
type levelSet struct {
	eps     float64
	spheres []geometry.SphereAt
}

// knnLevelSets plans 16 k-nn queries (k = 10) on the disseminate workload's
// network — 64 peers × 500 128-d Markov items, 4 levels, 10 clusters per peer,
// fixture seed 1, queries at stored items — and returns each level's sets.
func knnLevelSets(b *testing.B) [][]levelSet {
	sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: 64, ItemsPerPeer: 500, Dim: 128, Levels: 4, ClustersPerPeer: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys.PublishAll()
	cfg := sys.Config()
	rec := &lastSearch{sys: sys, last: make([][]overlay.Entry, cfg.Levels)}
	eng, err := core.NewEngine(cfg, sys.Bounds(), rec)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]float64, sys.TotalItems())
	for p := range cfg.Peers {
		ids, items := sys.PeerData(p)
		for i, id := range ids {
			data[id] = items[i]
		}
	}
	rng := rand.New(rand.NewSource(8))
	sets := make([][]levelSet, cfg.Levels)
	for i := range 16 {
		q := data[rng.Intn(len(data))]
		plan, err := eng.PlanKNN(context.Background(), i%cfg.Peers, q, 10, core.KNNOptions{})
		if err != nil {
			b.Fatal(err)
		}
		dec := wavelet.Decompose(q, cfg.Convention)
		for l := range sets {
			set := levelSet{eps: plan.EpsPerLevel[l]}
			for _, en := range rec.last[l] {
				ref := en.Payload.(core.ClusterRef)
				set.spheres = append(set.spheres, geometry.SphereAt{Dist: vec.Dist(dec.Subspace(l), ref.Center), Radius: ref.Radius, Items: ref.Items})
			}
			sets[l] = append(sets[l], set)
		}
	}
	return sets
}

var sinkEps float64

// BenchmarkLevelEps times the Eq 8 work of one k-nn level pass — the count
// at a radius, then the solve for k = 10 — over the cluster sets disseminate
// k-nn queries discover at each level (subspace dimensions 1, 1, 2 and 4),
// through the cap series and through the frozen beta form.
func BenchmarkLevelEps(b *testing.B) {
	sets := knnLevelSets(b)
	impls := []struct {
		name  string
		level func(d int, s levelSet) float64
	}{
		{"new", func(d int, s levelSet) float64 {
			return geometry.ExpectedCount(d, s.eps, s.spheres) + geometry.SolveEpsForCount(d, 10, s.spheres)
		}},
		{"reference", func(d int, s levelSet) float64 {
			return geometry.ExpectedCountReference(d, s.eps, s.spheres) + geometry.SolveEpsBetaReference(d, 10, s.spheres)
		}},
	}
	for _, impl := range impls {
		for l, ls := range sets {
			d := wavelet.SubspaceDim(l)
			b.Run(fmt.Sprintf("%s/level%d-d%d", impl.name, l, d), func(b *testing.B) {
				b.ReportAllocs()
				evals0 := geometry.RegIncBetaEvals()
				for i := 0; i < b.N; i++ {
					sinkEps += impl.level(d, ls[i%len(ls)])
				}
				b.ReportMetric(float64(geometry.RegIncBetaEvals()-evals0)/float64(b.N), "betaevals/op")
			})
		}
	}
}
