// Package experiments contains one driver per figure of the paper's
// evaluation (§5–6), plus the extension studies listed in DESIGN.md. Each
// driver builds its workload, runs the measurement, and returns typed rows
// that cmd/hyperm-bench renders as the paper's tables/series and that
// bench_test.go wraps in testing.B benchmarks.
//
// Every driver takes a Params with scaled-down defaults so the whole suite
// runs in seconds; PaperScale() returns the publication-scale settings
// (100 nodes × 1000 items × 512 dims for §5, 50 nodes × 12,000 histograms
// for §6) for use from the CLI.
package experiments

import (
	"fmt"
	"math/rand"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/dataset"
	"hyperm/internal/flatindex"
	"hyperm/internal/overlay"
	"hyperm/internal/vec"
)

// Params fixes the workload size shared by the dissemination experiments.
type Params struct {
	// Peers is the network size (paper §5: 100).
	Peers int
	// ItemsPerPeer is the average per-device collection size (paper: 1000).
	ItemsPerPeer int
	// Dim is the feature dimensionality; power of two (paper: 512).
	Dim int
	// Levels is the number of wavelet overlays Hyper-M uses (paper: 4).
	Levels int
	// ClustersPerPeer is K_p (paper's efficiency runs use ~items/20).
	ClustersPerPeer int
	// Seed makes the run reproducible.
	Seed int64
	// Parallelism bounds the worker goroutines used to run independent
	// simulation cells of a sweep concurrently, and is forwarded to
	// core.Config.Parallelism for the per-peer publication math and each
	// query's level searches and store scans. 0 uses GOMAXPROCS; 1 restores
	// fully serial execution. Results are identical for every setting: each
	// cell builds its own System from its own seeds, and rows are merged in
	// sweep order.
	Parallelism int
}

// DefaultParams returns the scaled-down configuration used by tests and
// benchmarks: same shape as the paper — in particular the same ~10:1
// items-per-published-cluster summarization ratio — at ~10× less work.
func DefaultParams() Params {
	return Params{Peers: 50, ItemsPerPeer: 400, Dim: 128, Levels: 4, ClustersPerPeer: 10, Seed: 1}
}

// PaperScale returns the paper's §5 configuration (expensive: use from the
// CLI, not from unit tests).
func PaperScale() Params {
	return Params{Peers: 100, ItemsPerPeer: 1000, Dim: 512, Levels: 4, ClustersPerPeer: 10, Seed: 1}
}

// EffectivenessParams fixes the §6 retrieval workload.
type EffectivenessParams struct {
	// Peers is the network size (paper: 50).
	Peers int
	// Objects and Views define the ALOI-substitute corpus
	// (paper: 1000×12 = 12,000 histograms).
	Objects, Views int
	// Bins is the histogram dimensionality; power of two.
	Bins int
	// Levels and ClustersPerPeer configure Hyper-M (paper: 4 levels,
	// 5–20 clusters).
	Levels, ClustersPerPeer int
	// Queries is the number of query points sampled per configuration.
	Queries int
	// Seed makes the run reproducible.
	Seed int64
	// Parallelism bounds the worker goroutines for independent simulation
	// cells, per-peer publication math and query fan-out, exactly as
	// Params.Parallelism.
	Parallelism int
}

// DefaultEffectiveness returns the scaled-down §6 configuration.
func DefaultEffectiveness() EffectivenessParams {
	return EffectivenessParams{Peers: 25, Objects: 100, Views: 12, Bins: 64,
		Levels: 4, ClustersPerPeer: 10, Queries: 20, Seed: 1}
}

// PaperEffectiveness returns the paper's §6 configuration. 128 histogram
// bins keep 1,000 synthetic objects as separable as the real ALOI corpus
// (at 64 bins, ~40% of a view's true top-10 belongs to colliding foreign
// objects, which no retrieval system could tell apart).
func PaperEffectiveness() EffectivenessParams {
	return EffectivenessParams{Peers: 50, Objects: 1000, Views: 12, Bins: 128,
		Levels: 4, ClustersPerPeer: 10, Queries: 50, Seed: 1}
}

// canFactory builds per-level CAN overlays with deterministic seeds.
func canFactory(seed int64) core.OverlayFactory {
	return func(level, keyDim, peers int) (overlay.Network, error) {
		return can.Build(can.Config{
			Nodes: peers,
			Dim:   keyDim,
			Rng:   rand.New(rand.NewSource(seed*1000 + int64(level))),
		})
	}
}

// markovData generates the §5.1 corpus and its peer assignment.
func markovData(p Params) ([][]float64, dataset.Assignment) {
	rng := rand.New(rand.NewSource(p.Seed))
	data := dataset.Markov(dataset.MarkovConfig{N: p.Peers * p.ItemsPerPeer, Dim: p.Dim}, rng)
	asg := dataset.AssignToPeers(data, dataset.AssignConfig{Peers: p.Peers}, rng)
	return data, asg
}

// markovSystem builds a Hyper-M system over the §5.1 synthetic corpus
// (bounds derived, not yet published) and returns the system, the corpus and
// the peer assignment.
func markovSystem(p Params) (*core.System, [][]float64, dataset.Assignment, error) {
	data, asg := markovData(p)
	sys, err := newSystem(p, rand.New(rand.NewSource(p.Seed+1)))
	if err != nil {
		return nil, nil, dataset.Assignment{}, err
	}
	loadAssignment(sys, data, asg)
	sys.DeriveBounds()
	return sys, data, asg, nil
}

// canStats extracts CAN statistics from an overlay built by canFactory.
func canStats(ov overlay.Network) (can.Stats, bool) {
	cn, ok := ov.(*can.Overlay)
	if !ok {
		return can.Stats{}, false
	}
	return cn.Stats(), true
}

// avgPublishedRadius is the mean key-space radius of every published cluster
// sphere — the quantity that drives replication overhead.
func avgPublishedRadius(sys *core.System, p Params) float64 {
	var sum float64
	var n int
	for peer := 0; peer < p.Peers; peer++ {
		for l := 0; l < p.Levels; l++ {
			for _, ref := range sys.PublishedClusters(peer, l) {
				sum += sys.KeyRadius(l, ref.Radius)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func newSystem(p Params, rng *rand.Rand) (*core.System, error) {
	return core.NewSystem(core.Config{
		Peers:           p.Peers,
		Dim:             p.Dim,
		Levels:          p.Levels,
		ClustersPerPeer: p.ClustersPerPeer,
		Factory:         canFactory(p.Seed),
		Rng:             rng,
		Parallelism:     p.Parallelism,
	})
}

// BuildMarkovSystem builds the §5.1 workload with bounds derived but nothing
// published — the exact input state PublishAll consumes. Exported for the
// publication-throughput benchmarks (bench_test.go, hyperm-bench -run publish),
// which need to time PublishAll alone on a fresh system per iteration.
func BuildMarkovSystem(p Params) (*core.System, error) {
	sys, _, _, err := markovSystem(p)
	return sys, err
}

func loadAssignment(sys *core.System, data [][]float64, asg dataset.Assignment) {
	for peer, items := range asg.PeerItems {
		if len(items) == 0 {
			continue
		}
		vecs := make([][]float64, len(items))
		for i, id := range items {
			vecs[i] = data[id]
		}
		sys.AddPeerData(peer, items, vecs)
	}
}

// pointMapper normalizes raw feature vectors into CAN key space using the
// first keyDims dimensions — the "index in only 2 dimensions" baseline of
// Fig 8b uses keyDims=2; the full-dimensional baseline uses keyDims=Dim.
type pointMapper struct {
	lo, hi  []float64
	keyDims int
}

func newPointMapper(data [][]float64, keyDims int) pointMapper {
	lo, hi := vec.MinMax(data)
	return pointMapper{lo: lo, hi: hi, keyDims: keyDims}
}

func (m pointMapper) key(x []float64) []float64 {
	out := make([]float64, m.keyDims)
	for i := 0; i < m.keyDims; i++ {
		span := m.hi[i] - m.lo[i]
		if span <= 0 {
			out[i] = 0
			continue
		}
		v := (x[i] - m.lo[i]) / span * (1 - 1e-9)
		if v < 0 {
			v = 0
		}
		if v >= 1 {
			v = 1 - 1e-9
		}
		out[i] = v
	}
	return out
}

// canItemInsertHops inserts every assigned item as a point into one CAN of
// keyDims dimensions (the paper's conventional-approach baselines) and
// returns total hops and the number of items inserted.
func canItemInsertHops(data [][]float64, asg dataset.Assignment, keyDims int, seed int64) (hops, items int, err error) {
	cn, err := can.Build(can.Config{
		Nodes: len(asg.PeerItems),
		Dim:   keyDims,
		Rng:   rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return 0, 0, err
	}
	m := newPointMapper(data, keyDims)
	for peer, ids := range asg.PeerItems {
		for _, id := range ids {
			hops += cn.InsertSphere(peer, overlay.Entry{Key: m.key(data[id]), Payload: id})
			items++
		}
	}
	return hops, items, nil
}

// flatindexOf builds the exact-search ground truth over a corpus.
func flatindexOf(data [][]float64) *flatindex.Index { return flatindex.New(data) }

// fmtF renders a float with sensible precision for table output.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }
