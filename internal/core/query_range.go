package core

import (
	"context"
	"fmt"

	"hyperm/internal/geometry"
	"hyperm/internal/vec"
)

// RangeOptions tunes a range query.
type RangeOptions struct {
	// MaxPeers caps how many of the top-scoring peers are contacted in the
	// retrieval phase. Zero contacts every peer with a positive aggregate
	// score (the no-false-dismissal setting); Figure 10a sweeps this cap.
	MaxPeers int
}

// RangeResult is the outcome of a distributed range query.
type RangeResult struct {
	// Items are the global ids of the retrieved items. For range queries
	// every returned item truly lies within the radius (precision 1.0 by
	// construction — contacted peers filter locally on the original
	// vectors, §6.1).
	Items []int
	// Scores lists candidate peers by descending aggregated relevance.
	Scores []PeerScore
	// PeersContacted is how many peers were asked for actual data.
	PeersContacted int
	// OverlayHops is the total overlay routing/flooding cost of the
	// scoring phase, across all levels.
	OverlayHops int
}

// RangeQuery answers "all items within eps of q" with the two-phase protocol
// of §4.1: translate the query into every wavelet subspace with the Theorem
// 3.1 radius scaling, score peers by sphere intersection (Eq 1), aggregate
// with the configured policy, then fetch and locally filter from the top
// peers. With AggMin and MaxPeers=0 the result has no false dismissals
// (Theorem 4.1). The protocol itself runs in the shared query Engine; this
// wrapper adds the simulation-side checks.
func (s *System) RangeQuery(from int, q []float64, eps float64, opts RangeOptions) RangeResult {
	s.requireBounds()
	if s.peers[from].dead {
		panic(fmt.Sprintf("core: peer %d has left the network and cannot query", from))
	}
	res, err := s.engine.RangeQuery(context.Background(), from, q, eps, opts)
	if err != nil {
		// The in-memory backend never fails; an error here is a bug.
		panic(fmt.Sprintf("core: in-process range query failed: %v", err))
	}
	return res
}

// clusterFraction is the Eq 1 volume-intersection term for one cluster, in
// the exact subspace coordinates carried by the payload. A zero-radius query
// (point query) degenerates to sphere membership.
func clusterFraction(dim int, ref ClusterRef, qc []float64, epsL float64) float64 {
	dist := vec.Dist(qc, ref.Center)
	if epsL == 0 {
		// Point query: membership test with a hair of slack — the farthest
		// cluster member sits exactly on the boundary.
		if dist <= ref.Radius+1e-9*(1+ref.Radius) {
			return 1
		}
		return 0
	}
	return geometry.IntersectFraction(dim, ref.Radius, epsL, dist)
}
