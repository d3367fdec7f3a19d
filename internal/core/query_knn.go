package core

import (
	"context"
	"fmt"
)

// KNNOptions tunes a k-nearest-neighbor query.
type KNNOptions struct {
	// C overrides the configured over-fetch knob (Fig 5 line 8). Zero keeps
	// the system default. Values in [1,2] trade bandwidth for recall (§6.1).
	C float64
	// MaxPeers caps the number of peers contacted; zero uses the Fig 5
	// policy (smallest top-score prefix whose expected item mass covers k).
	MaxPeers int
}

// KNNResult is the outcome of a distributed k-nn query.
type KNNResult struct {
	// Items are the global ids of every fetched item, ordered by ascending
	// true distance to the query (the paper's result.sort(), Fig 5 line 10).
	// The caller takes the first k as the answer; the full set is retained
	// so precision can be measured against the fetch volume.
	Items []int
	// Scores lists candidate peers by descending aggregated relevance.
	Scores []PeerScore
	// EpsPerLevel records the per-level range radii estimated from Eq 8.
	EpsPerLevel []float64
	// PeersContacted is how many peers were asked for data.
	PeersContacted int
	// OverlayHops is the total overlay cost of the scoring phase.
	OverlayHops int
}

// KNNQuery implements the heuristic of Figure 5: per level, estimate the
// range radius that is expected to capture k items by inverting Eq 8 over
// the reachable clusters, run the per-level range queries, merge peer
// scores, and fetch a score-proportional number of items from the top peers.
// The protocol itself runs in the shared query Engine; this wrapper adds the
// simulation-side checks.
func (s *System) KNNQuery(from int, q []float64, k int, opts KNNOptions) KNNResult {
	s.requireBounds()
	if s.peers[from].dead {
		panic(fmt.Sprintf("core: peer %d has left the network and cannot query", from))
	}
	res, err := s.engine.KNNQuery(context.Background(), from, q, k, opts)
	if err != nil {
		// The in-memory backend never fails; an error here is a bug.
		panic(fmt.Sprintf("core: in-process k-nn query failed: %v", err))
	}
	return res
}

// itemLookup maps global item ids to vectors across all peers (test and
// diagnostics helper; the query path itself never needs global knowledge).
func (s *System) itemLookup() map[int][]float64 {
	out := make(map[int][]float64, s.TotalItems())
	for _, ps := range s.peers {
		for i, n := 0, ps.store.Len(); i < n; i++ {
			out[ps.store.ID(i)] = ps.store.Vec(i)
		}
	}
	return out
}
