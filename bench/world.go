package main

import (
	"errors"
	"fmt"
	"math"

	"hyperm/internal/core"
	"hyperm/internal/eval"
	"hyperm/internal/experiments"
	"hyperm/internal/flatindex"
	"hyperm/internal/vec"
)

// world is a workload's fixture: the §5.1 Markov corpus placed on peers, the
// published system (serve workloads), and the traffic query pool.
type world struct {
	sp          spec
	sys         *core.System // bounds derived; published when sp.Serve
	data        [][]float64  // corpus row = item id
	pool        queryPool
	hopsPerItem float64
}

// buildCorpus generates the corpus and its peer assignment (unpublished).
func buildCorpus(sp spec) (*world, error) {
	sys, err := experiments.BuildMarkovSystem(experiments.Params{
		Peers: sp.Peers, ItemsPerPeer: sp.ItemsPerPeer, Dim: sp.Dim,
		Levels: sp.Levels, ClustersPerPeer: sp.Clusters, Seed: fixtureSeed,
	})
	if err != nil {
		return nil, err
	}
	w := &world{sp: sp, sys: sys, data: make([][]float64, sys.TotalItems())}
	for p := 0; p < sp.Peers; p++ {
		ids, items := sys.PeerData(p)
		for i, id := range ids {
			if id < 0 || id >= len(w.data) {
				return nil, fmt.Errorf("bench: corpus id %d outside [0,%d)", id, len(w.data))
			}
			w.data[id] = items[i]
		}
	}
	for id, row := range w.data {
		if row == nil {
			return nil, fmt.Errorf("bench: corpus item %d is on no peer", id)
		}
	}
	w.pool = newQueryPool(fixtureSeed+7, sp.Pool, w.data)
	return w, nil
}

// buildWorld is buildCorpus plus the initial publish of a serve workload.
func buildWorld(sp spec) (*world, error) {
	w, err := buildCorpus(sp)
	if err != nil {
		return nil, err
	}
	st := w.sys.PublishAll()
	w.hopsPerItem = float64(st.Hops) / float64(len(w.data))
	return w, nil
}

// truth is the quality gate: fixed queries with their exact answers from the
// flat index over the corpus.
type truth struct {
	rangeQ, knnQ       [][]float64
	rangeEps           []float64
	rangeWant, knnWant [][]int
	k                  int
}

// gateNeighbors sizes the gate's range radii: the distance to a query's 20th
// neighbour, so every gate range query has a small exact answer and a false
// dismissal would show in range_recall.
const gateNeighbors = 20

func buildTruth(w *world) truth {
	ix := flatindex.New(w.data)
	qs := newQueryPool(fixtureSeed+11, 2*w.sp.Gate, w.data)
	t := truth{k: w.sp.K}
	for i, q := range qs.centers {
		if i < w.sp.Gate {
			eps := ix.KNNRadius(q, gateNeighbors)
			t.rangeQ = append(t.rangeQ, q)
			t.rangeEps = append(t.rangeEps, eps)
			t.rangeWant = append(t.rangeWant, ix.Range(q, eps))
		} else {
			t.knnQ = append(t.knnQ, q)
			t.knnWant = append(t.knnWant, ix.KNN(q, t.k))
		}
	}
	return t
}

// recallOf averages recall over the gate queries; got[i] answers query i.
func recallOf(got, want [][]int, firstK int) float64 {
	var sum float64
	for i := range want {
		g := got[i]
		if firstK > 0 && len(g) > firstK {
			g = g[:firstK]
		}
		_, r := eval.PrecisionRecall(g, want[i])
		sum += r
	}
	return sum / float64(len(want))
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSample bounds how many items of one answer are verified against their
// vectors: large answers (serve-ingest range queries return ~10^5 ids) are
// checked on an evenly strided sample so the checker does not compete with the
// cluster for the processor.
const checkSample = 256

// checkRange verifies precision 1.0: every (sampled) returned id names a
// vector within eps of q. vecOf resolves an id to the vector the generator
// holds for it.
func checkRange(q []float64, eps float64, items []int, vecOf func(id int) []float64) error {
	stride := 1
	if len(items) > checkSample {
		stride = len(items) / checkSample
	}
	limit := eps * (1 + 1e-9)
	for i := 0; i < len(items); i += stride {
		v := vecOf(items[i])
		if v == nil {
			return fmt.Errorf("range answer holds unknown item %d", items[i])
		}
		if d := vec.Dist(q, v); d > limit {
			return fmt.Errorf("range answer holds item %d at distance %g > radius %g", items[i], d, eps)
		}
	}
	return nil
}

// checkKNN verifies a kNN answer is non-empty and names known items in
// ascending distance.
func checkKNN(q []float64, items []int, vecOf func(id int) []float64) error {
	if len(items) == 0 {
		return errors.New("knn answer is empty")
	}
	prev := math.Inf(-1)
	for i := 0; i < len(items) && i < checkSample; i++ {
		v := vecOf(items[i])
		if v == nil {
			return fmt.Errorf("knn answer holds unknown item %d", items[i])
		}
		d := vec.Dist2(q, v)
		if d < prev {
			return fmt.Errorf("knn answer out of order at position %d", i)
		}
		prev = d
	}
	return nil
}
