// Package hyperm is a from-scratch Go implementation of Hyper-M
// (Lupu, Li, Ooi, Shi: "Clustering wavelets to speed-up data dissemination
// in structured P2P MANETs", ICDE 2007): fast publication of large
// high-dimensional collections into a structured peer-to-peer overlay by
// announcing wavelet-space cluster summaries instead of individual items,
// with approximate similarity search on top.
//
// The package is a simulation library: peers, overlays and radios are all
// in-process and deterministic under a seed, which is what makes the
// paper's experiments reproducible (see internal/experiments and
// EXPERIMENTS.md). The public API wraps the core pipeline:
//
//	net, err := hyperm.New(hyperm.Options{
//		Peers: 50, Dim: 64, Levels: 4, ClustersPerPeer: 10, Seed: 1,
//	})
//	net.AddItems(peer, ids, vectors)   // local, per device
//	report, err := net.Publish()       // DWT -> k-means -> overlay insert
//	ans, err := net.Range(0, q, 0.1)   // no false dismissals
//	ans, err := net.KNN(0, q, 10)      // Fig 5 heuristic
//
// Item vectors must all share the configured power-of-two dimensionality;
// item ids are caller-chosen and must be globally unique.
// The network is the paper's configuration: CAN overlays, min-score
// aggregation, averaging Haar; internal/core's Config runs the ablations.
package hyperm

import (
	"fmt"
	"math"
	"math/rand"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// PeerScore re-exports the scored-peer pair returned by queries.
type PeerScore = core.PeerScore

// Options configures a Hyper-M network.
type Options struct {
	// Peers is the number of devices (required, >= 1).
	Peers int
	// Dim is the item dimensionality; must be a power of two (required).
	Dim int
	// Levels is the number of wavelet subspaces/overlays (default 4, the
	// paper's sweet spot; max log2(Dim)+1).
	Levels int
	// ClustersPerPeer is K_p, the per-level summary budget (default 10).
	ClustersPerPeer int
	// Seed drives every random choice; equal seeds give identical networks.
	Seed int64
	// Parallelism bounds the worker goroutines used for the per-peer
	// publication math (wavelet decomposition and clustering) and, within
	// one query, for its per-level overlay searches and its peer store
	// scans. 0 uses all cores, 1 forces serial execution. The published
	// network and every answer are byte-identical for every setting —
	// parallelism changes wall-clock time only, never results.
	Parallelism int
}

// Network is a simulated Hyper-M deployment. It is not safe for concurrent
// use: one call at a time, though a single Publish, Range or KNN call may
// use several cores (Options.Parallelism).
type Network struct {
	sys       *core.System
	opts      Options
	published bool
	usedIDs   map[int]bool
}

// PublishReport summarizes the cost of announcing all peer data.
type PublishReport struct {
	// Clusters is the number of cluster spheres inserted across overlays.
	Clusters int
	// OverlayHops is the total routing + replication cost.
	OverlayHops int
	// HopsPerLevel breaks the cost down by wavelet level.
	HopsPerLevel []int
	// Items is the number of items the summaries cover.
	Items int
}

// HopsPerItem is the paper's headline metric: overlay hops per data item
// disseminated.
func (r PublishReport) HopsPerItem() float64 {
	if r.Items == 0 {
		return 0
	}
	return float64(r.OverlayHops) / float64(r.Items)
}

// RangeAnswer is the result of a Range query.
type RangeAnswer struct {
	// Items holds the ids of every retrieved item, ascending. All of them
	// truly lie within the radius (precision 1.0).
	Items []int
	// Scores ranks the candidate peers (descending aggregated relevance).
	Scores []PeerScore
	// PeersContacted and OverlayHops account the query cost.
	PeersContacted int
	OverlayHops    int
}

// KNNAnswer is the result of a KNN query.
type KNNAnswer struct {
	// Items holds the fetched item ids ordered by ascending true distance;
	// take the first k as the answer.
	Items []int
	// Scores ranks the candidate peers.
	Scores []PeerScore
	// PeersContacted and OverlayHops account the query cost.
	PeersContacted int
	OverlayHops    int
}

// New builds the per-level CAN overlays and an empty network.
func New(opts Options) (*Network, error) {
	if opts.Levels == 0 {
		opts.Levels = 4
	}
	if opts.Dim > 0 && wavelet.IsPow2(opts.Dim) {
		if max := wavelet.NumSubspaces(opts.Dim); opts.Levels > max {
			opts.Levels = max
		}
	}
	if opts.ClustersPerPeer == 0 {
		opts.ClustersPerPeer = 10
	}
	sys, err := core.NewSystem(core.Config{
		Peers:           opts.Peers,
		Dim:             opts.Dim,
		Levels:          opts.Levels,
		ClustersPerPeer: opts.ClustersPerPeer,
		Factory: func(level, keyDim, peers int) (overlay.Network, error) {
			return can.Build(can.Config{
				Nodes: peers, Dim: keyDim,
				Rng: rand.New(rand.NewSource(opts.Seed*7919 + int64(level))),
			})
		},
		Rng:         rand.New(rand.NewSource(opts.Seed + 1)),
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("hyperm: %w", err)
	}
	return &Network{sys: sys, opts: opts, usedIDs: make(map[int]bool)}, nil
}

// Peers returns the network size.
func (n *Network) Peers() int { return n.opts.Peers }

// Items returns the total number of items across all peers.
func (n *Network) Items() int { return n.sys.TotalItems() }

// AddItems stores vectors (with caller-chosen unique ids) on a peer's
// device. It must be called before Publish; afterwards, use Insert.
func (n *Network) AddItems(peer int, ids []int, vectors [][]float64) error {
	if err := n.checkPeer(peer); err != nil {
		return err
	}
	if len(ids) != len(vectors) {
		return fmt.Errorf("hyperm: %d ids for %d vectors", len(ids), len(vectors))
	}
	if n.published {
		return fmt.Errorf("hyperm: network already published; use Insert for late additions")
	}
	for i, v := range vectors {
		if err := vec.Check(v, n.opts.Dim, false); err != nil {
			return fmt.Errorf("hyperm: vector %d: %w", i, err)
		}
		if n.usedIDs[ids[i]] {
			return fmt.Errorf("hyperm: duplicate item id %d", ids[i])
		}
	}
	for _, id := range ids {
		n.usedIDs[id] = true
	}
	n.sys.AddPeerData(peer, ids, vectors)
	return nil
}

// Publish runs the Hyper-M insertion pipeline (Fig 2) for every peer:
// wavelet decomposition, per-level k-means, and overlay insertion of the
// cluster summaries. The key-space bounds come from the same decompositions.
func (n *Network) Publish() (PublishReport, error) {
	if n.published {
		return PublishReport{}, fmt.Errorf("hyperm: already published")
	}
	if n.sys.TotalItems() == 0 {
		return PublishReport{}, fmt.Errorf("hyperm: no items added")
	}
	st := n.sys.PublishAll()
	n.published = true
	return PublishReport{
		Clusters:     st.ClustersPublished,
		OverlayHops:  st.Hops,
		HopsPerLevel: st.HopsPerLevel,
		Items:        n.sys.TotalItems(),
	}, nil
}

// Insert adds one item after publication without re-announcing summaries
// (the paper's short-network-lifetime setting, Fig 10c). Retrieval quality
// for the new item degrades gracefully; existing items are unaffected.
func (n *Network) Insert(peer, id int, vector []float64) error {
	if err := n.checkPeer(peer); err != nil {
		return err
	}
	if !n.published {
		return fmt.Errorf("hyperm: not yet published; use AddItems")
	}
	if err := vec.Check(vector, n.opts.Dim, false); err != nil {
		return fmt.Errorf("hyperm: vector: %w", err)
	}
	if n.usedIDs[id] {
		return fmt.Errorf("hyperm: duplicate item id %d", id)
	}
	n.usedIDs[id] = true
	n.sys.PostInsert(peer, id, vector)
	return nil
}

// FailPeer models a device crashing or leaving radio range after
// publication: it stops answering fetches and its overlay storage is lost.
// Returns the number of index records lost. Irreversible.
func (n *Network) FailPeer(peer int) (recordsLost int, err error) {
	if err := n.checkPeer(peer); err != nil {
		return 0, err
	}
	if !n.published {
		return 0, fmt.Errorf("hyperm: not yet published")
	}
	return n.sys.FailPeer(peer), nil
}

// AlivePeers returns how many peers have not failed.
func (n *Network) AlivePeers() int { return n.sys.AlivePeers() }

// LeavePeer models a graceful departure: the device's items leave with it,
// but the index records it stored are handed to neighbors first (the CAN
// departure protocol), so other peers' summaries survive intact. Returns the
// number of handover messages.
func (n *Network) LeavePeer(peer int) (handoverMsgs int, err error) {
	if err := n.checkPeer(peer); err != nil {
		return 0, err
	}
	if !n.published {
		return 0, fmt.Errorf("hyperm: not yet published")
	}
	return n.sys.LeavePeer(peer)
}

// Lookup is an exact point query: it returns the ids of items exactly equal
// to the query vector (§4's "point queries are straightforward").
func (n *Network) Lookup(fromPeer int, query []float64) ([]int, error) {
	ans, err := n.Range(fromPeer, query, 0)
	if err != nil {
		return nil, err
	}
	return ans.Items, nil
}

// Range retrieves every item within radius of query, contacting all
// positively scored peers (no false dismissals under AggMin).
func (n *Network) Range(fromPeer int, query []float64, radius float64) (RangeAnswer, error) {
	return n.RangeBudget(fromPeer, query, radius, 0)
}

// RangeBudget is Range with a cap on the number of peers contacted
// (0 = unlimited). Precision stays 1.0; recall depends on the budget.
func (n *Network) RangeBudget(fromPeer int, query []float64, radius float64, maxPeers int) (RangeAnswer, error) {
	if err := n.checkQuery(fromPeer, query); err != nil {
		return RangeAnswer{}, err
	}
	if !(radius >= 0) {
		return RangeAnswer{}, fmt.Errorf("hyperm: radius %v, want >= 0", radius)
	}
	res := n.sys.RangeQuery(fromPeer, query, radius, core.RangeOptions{MaxPeers: maxPeers})
	return RangeAnswer{
		Items:          res.Items,
		Scores:         res.Scores,
		PeersContacted: res.PeersContacted,
		OverlayHops:    res.OverlayHops,
	}, nil
}

// KNN retrieves (approximately) the k items closest to query using the
// paper's Figure 5 heuristic.
func (n *Network) KNN(fromPeer int, query []float64, k int) (KNNAnswer, error) {
	return n.KNNWithC(fromPeer, query, k, 0)
}

// KNNWithC is KNN with an explicit over-fetch knob C (0 uses the default 1).
// Larger C trades bandwidth and precision for recall.
func (n *Network) KNNWithC(fromPeer int, query []float64, k int, c float64) (KNNAnswer, error) {
	if err := n.checkQuery(fromPeer, query); err != nil {
		return KNNAnswer{}, err
	}
	if k < 1 {
		return KNNAnswer{}, fmt.Errorf("hyperm: k must be >= 1, got %d", k)
	}
	if !(c >= 0) || math.IsInf(c, 1) {
		return KNNAnswer{}, fmt.Errorf("hyperm: C must be finite and >= 0, got %v", c)
	}
	res := n.sys.KNNQuery(fromPeer, query, k, core.KNNOptions{C: c})
	return KNNAnswer{
		Items:          res.Items,
		Scores:         res.Scores,
		PeersContacted: res.PeersContacted,
		OverlayHops:    res.OverlayHops,
	}, nil
}

func (n *Network) checkPeer(peer int) error {
	if peer < 0 || peer >= n.opts.Peers {
		return fmt.Errorf("hyperm: peer %d out of range [0,%d)", peer, n.opts.Peers)
	}
	return nil
}

func (n *Network) checkQuery(fromPeer int, query []float64) error {
	if err := n.checkPeer(fromPeer); err != nil {
		return err
	}
	if !n.published {
		return fmt.Errorf("hyperm: not yet published")
	}
	if err := vec.Check(query, n.opts.Dim, true); err != nil {
		return fmt.Errorf("hyperm: query: %w", err)
	}
	return nil
}
