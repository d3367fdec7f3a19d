package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperm/internal/cluster"
	"hyperm/internal/dataset"
	"hyperm/internal/parallel"
	"hyperm/internal/wavelet"
)

// Fig11Row is one bar of Figure 11: k-means quality (cohesion/separation,
// lower is better) in one vector space. The paper's finding — and the reason
// it uses four levels — is that the first few wavelet subspaces cluster
// better than the original space, while deep detail levels degrade.
type Fig11Row struct {
	// Space names the vector space ("original", "A", "D_0", ...).
	Space string
	// Dim is that space's dimensionality.
	Dim int
	// Ratio is the mean cohesion/separation over all peers (lower = tighter
	// and better separated).
	Ratio float64
	// Cohesion and Separation are the component means.
	Cohesion, Separation float64
}

// Fig11 clusters each peer's collection in the original space and in every
// wavelet subspace up to maxSpaces, reporting average cluster quality per
// space. It uses the ALOI-substitute corpus, like the §6 experiments the
// figure accompanies.
func Fig11(p EffectivenessParams, maxSpaces int) ([]Fig11Row, error) {
	if maxSpaces <= 0 {
		maxSpaces = 6
	}
	if max := wavelet.NumSubspaces(p.Bins); maxSpaces > max {
		maxSpaces = max
	}
	rng := rand.New(rand.NewSource(p.Seed))
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)

	// Group the corpus per peer as aloiSystem does.
	peerItems := make([][][]float64, p.Peers)
	for i, x := range data {
		peer := labels[i] % p.Peers
		peerItems[peer] = append(peerItems[peer], x)
	}

	// Original space first.
	rows := []Fig11Row{{Space: "original", Dim: p.Bins}}
	for s := 0; s < maxSpaces; s++ {
		rows = append(rows, Fig11Row{Space: wavelet.SubspaceName(s), Dim: wavelet.SubspaceDim(s)})
	}

	// Each peer's decomposition + clustering is independent (its own krng,
	// its own items), so the peers fan out across workers; the per-space
	// sums are merged serially in peer order, reproducing the serial
	// accumulation order bit for bit.
	type peerPartial struct {
		rows   []Fig11Row
		counts []int
	}
	partials, err := parallel.Map(nil, p.Parallelism, len(peerItems), func(pi int) (peerPartial, error) {
		items := peerItems[pi]
		if len(items) < 2 {
			return peerPartial{}, nil
		}
		part := peerPartial{rows: make([]Fig11Row, len(rows)), counts: make([]int, len(rows))}
		krng := rand.New(rand.NewSource(p.Seed + 60))
		// Original space.
		addQuality(&part.rows[0], &part.counts[0], items, p.ClustersPerPeer, krng)
		// Wavelet subspaces.
		for s, coeffs := range wavelet.SubspaceMatrices(items, maxSpaces, wavelet.Averaging) {
			addQuality(&part.rows[s+1], &part.counts[s+1], coeffs, p.ClustersPerPeer, krng)
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}

	counts := make([]int, len(rows))
	for _, part := range partials {
		if part.rows == nil {
			continue
		}
		for i := range rows {
			rows[i].Ratio += part.rows[i].Ratio
			rows[i].Cohesion += part.rows[i].Cohesion
			rows[i].Separation += part.rows[i].Separation
			counts[i] += part.counts[i]
		}
	}
	for i := range rows {
		if counts[i] > 0 {
			rows[i].Ratio /= float64(counts[i])
			rows[i].Cohesion /= float64(counts[i])
			rows[i].Separation /= float64(counts[i])
		}
	}
	return rows, nil
}

func addQuality(row *Fig11Row, count *int, items [][]float64, k int, rng *rand.Rand) {
	res := cluster.KMeans(items, cluster.Config{K: k, Rng: rng})
	q := cluster.Evaluate(items, res)
	if q.Separation == 0 {
		return // degenerate space (e.g. A of normalized histograms)
	}
	row.Ratio += q.Ratio()
	row.Cohesion += q.Cohesion
	row.Separation += q.Separation
	*count++
}

// RenderFig11 formats the rows as the CLI table.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — clustering quality per vector space (cohesion/separation, lower is better)\n")
	fmt.Fprintf(&b, "%-10s %-6s %-12s %-12s %-12s\n", "space", "dim", "ratio", "cohesion", "separation")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6d %-12s %-12s %-12s\n", r.Space, r.Dim,
			fmtF(r.Ratio), fmtF(r.Cohesion), fmtF(r.Separation))
	}
	return b.String()
}
