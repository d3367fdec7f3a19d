// Package core implements Hyper-M itself (paper §3–4): the
// wavelet-decompose → per-level k-means → per-level overlay publication
// pipeline, the sphere-intersection peer relevance score (Eq 1) with the
// min-score aggregation policy, range queries with the no-false-dismissal
// thresholds of Theorems 3.1/4.1, and the k-nn heuristic of Figure 5 built
// on the Eq 5–8 radius estimation.
package core

import (
	"fmt"
	"math/rand"

	"hyperm/internal/overlay"
	"hyperm/internal/wavelet"
)

// Aggregation selects how per-level peer scores combine into the global
// score used to rank peers (§3.2).
type Aggregation int

const (
	// AggMin is the paper's policy: Score = min_l Score_l. It prunes
	// aggressively and yields no false dismissals for range queries.
	AggMin Aggregation = iota
	// AggSum sums the per-level scores (ablation).
	AggSum
	// AggMean averages the per-level scores (ablation).
	AggMean
)

// String names the policy.
func (a Aggregation) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggSum:
		return "sum"
	case AggMean:
		return "mean"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// OverlayFactory builds the overlay for one wavelet level. keyDim is the
// dimensionality of that level's subspace, peers the network size. Hyper-M
// is overlay-agnostic (§5): the CAN factory is the paper's configuration,
// the ring factory exercises the independence claim.
//
// Overlays of different levels must share no mutable state: one query
// searches its levels concurrently (Config.Parallelism), each on its own
// overlay. An Observer or a loss FailRng shared across levels is a bug in
// the factory; ExtEnergy's shared observer is sound only because that
// experiment publishes and never queries.
type OverlayFactory func(level, keyDim, peers int) (overlay.Network, error)

// Config parameterizes a Hyper-M deployment.
type Config struct {
	// Peers is the number of devices in the MANET.
	Peers int
	// Dim is the data dimensionality; must be a power of two.
	Dim int
	// Levels is the number of wavelet subspaces (and overlays) used:
	// level 0 is the approximation A, level l >= 1 is detail D_{l-1}.
	// The paper finds four levels to be the sweet spot (§6.1.1).
	Levels int
	// ClustersPerPeer is K_p, the number of k-means clusters each peer
	// publishes per level.
	ClustersPerPeer int
	// Convention selects the Haar normalization (default: the paper's
	// averaging convention).
	Convention wavelet.Convention
	// Aggregation selects the score-combination policy (default AggMin).
	Aggregation Aggregation
	// C is the k-nn over-fetch knob of Fig 5 line 8 (default 1; the paper
	// recommends values in [1,2]).
	C float64
	// Factory builds each level's overlay. Required.
	Factory OverlayFactory
	// Rng drives clustering and any stochastic tie-breaks. Required.
	//
	// The system never hands Rng to worker goroutines: parallel publication
	// draws one clustering seed per peer from it serially (in peer order)
	// and gives each peer a private rand.Rand derived from that seed, so
	// results are identical for every Parallelism setting.
	Rng *rand.Rand
	// Parallelism bounds the worker goroutines used for the embarrassingly
	// parallel per-peer math — wavelet decomposition and per-subspace
	// k-means during DeriveBounds/PublishAll — and, within one query, for
	// the per-level overlay searches and the selected peers' store scans.
	// 0 (the default) uses GOMAXPROCS; 1 forces fully serial execution.
	// Overlay mutation is always serialized and query results merge in level
	// and score order, so every setting produces byte-identical systems and
	// answers (see DESIGN.md "Concurrency model"). A System still serves one
	// call at a time.
	Parallelism int
}

func (c Config) validate() error {
	if c.Peers < 1 {
		return fmt.Errorf("core: Peers must be >= 1, got %d", c.Peers)
	}
	if !wavelet.IsPow2(c.Dim) {
		return fmt.Errorf("core: Dim must be a power of two, got %d", c.Dim)
	}
	max := wavelet.NumSubspaces(c.Dim)
	if c.Levels < 1 || c.Levels > max {
		return fmt.Errorf("core: Levels must be in [1,%d] for Dim=%d, got %d", max, c.Dim, c.Levels)
	}
	if c.ClustersPerPeer < 1 {
		return fmt.Errorf("core: ClustersPerPeer must be >= 1, got %d", c.ClustersPerPeer)
	}
	if c.C < 0 {
		return fmt.Errorf("core: C must be positive, got %v", c.C)
	}
	if c.Factory == nil {
		return fmt.Errorf("core: Factory is required")
	}
	if c.Rng == nil {
		return fmt.Errorf("core: Rng is required")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.C == 0 {
		c.C = 1
	}
	return c
}

// Bounds is the coefficient range of one wavelet level, used to map
// subspace coordinates into the overlay's unit key space.
type Bounds struct {
	Lo, Hi float64
}

// keyMapper translates a level's coefficients into the overlay key space
// [0,1)^m by a uniform affine map, and radii by the same scale. A uniform
// (per-level isotropic) scale keeps spheres spheres. Coordinates outside the
// bounds are clamped just inside the torus — harmless when bounds come from
// the data domain, and a documented distortion otherwise.
type keyMapper struct {
	lo, hi float64
}

// buildMappers derives the per-level key mappers from coefficient bounds —
// the one place the bounds→key-space rule lives, shared by the in-process
// System and engines rebuilt from serving snapshots.
func buildMappers(bounds []Bounds) []keyMapper {
	mappers := make([]keyMapper, len(bounds))
	for l, b := range bounds {
		if b.Hi <= b.Lo {
			// Degenerate level (all coefficients identical): widen minimally
			// so the mapper stays well defined.
			b.Hi = b.Lo + 1e-9
		}
		// 5% margin keeps query spheres slightly inside the torus seam.
		span := b.Hi - b.Lo
		mappers[l] = keyMapper{lo: b.Lo - 0.05*span, hi: b.Hi + 0.05*span}
	}
	return mappers
}

// mapCoord maps a single coefficient into [0, 1).
func (m keyMapper) mapCoord(c float64) float64 {
	span := m.hi - m.lo
	if span <= 0 {
		return 0
	}
	v := (c - m.lo) / span
	const margin = 1e-9 // keys must stay strictly below 1 on the torus
	if v < 0 {
		v = 0
	}
	if v > 1-margin {
		v = 1 - margin
	}
	return v
}

// mapPoint maps a subspace vector into the key space.
func (m keyMapper) mapPoint(p []float64) []float64 {
	out := make([]float64, len(p))
	for i, c := range p {
		out[i] = m.mapCoord(c)
	}
	return out
}

// mapRadius converts a subspace radius to key-space units. No upper cap is
// applied: a radius beyond the torus diameter simply reaches every zone.
func (m keyMapper) mapRadius(r float64) float64 {
	span := m.hi - m.lo
	if span <= 0 {
		return 0
	}
	return r / span
}

// slacken inflates a mapped radius by a tiny relative+absolute margin.
// A cluster's farthest member lies exactly at distance == radius, so after
// the affine key mapping the boundary comparison is decided by floating-
// point rounding; the slack makes the overlay-level candidate test
// conservatively inclusive. Over-inclusion is harmless: scoring re-evaluates
// every candidate exactly in subspace coordinates.
func slacken(r float64) float64 { return r + 1e-9*(1+r) }
