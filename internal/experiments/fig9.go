package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/dataset"
	"hyperm/internal/eval"
	"hyperm/internal/overlay"
	"hyperm/internal/parallel"
	"hyperm/internal/wavelet"
)

// Fig9Row summarizes the data distribution across CAN nodes for one overlay
// configuration under intentionally skewed data (§5.3): the corpus is
// clustered and only a fixed number of clusters is kept, then published.
// The paper's observation: the original-space CAN and the approximation-only
// configuration concentrate data on very few nodes, while adding detail
// levels spreads it out thanks to the orthogonality of the wavelet
// subspaces.
type Fig9Row struct {
	// Config names the overlay configuration ("CAN-original", "A",
	// "A+D_0", ...).
	Config string
	// NonEmptyPeers is the number of peers holding at least one item
	// (the paper's "average number of peers holding the data").
	NonEmptyPeers int
	// MaxItems is the item mass on the most loaded peer.
	MaxItems int
	// Gini is the Gini coefficient of the per-peer item mass (0 = uniform).
	Gini float64
	// CV is the coefficient of variation of the per-peer item mass.
	CV float64
}

// Fig9 measures load distribution for the original-space CAN baseline and
// for Hyper-M with 1..p.Levels overlays, under a skew that keeps only
// keepClusters interest clusters (paper: two to five).
func Fig9(p Params, keepClusters int) ([]Fig9Row, error) {
	if keepClusters <= 0 {
		keepClusters = 3
	}
	rng := rand.New(rand.NewSource(p.Seed))
	data := dataset.Markov(dataset.MarkovConfig{N: p.Peers * p.ItemsPerPeer, Dim: p.Dim}, rng)
	asg := dataset.AssignToPeers(data, dataset.AssignConfig{
		Peers:        p.Peers,
		KeepClusters: keepClusters,
	}, rng)

	// Cell 0 is the original-space CAN baseline; cell l >= 1 is Hyper-M with
	// l overlays. All cells read the shared corpus but build their own
	// overlays, so they run concurrently; Map keeps the row order.
	return parallel.Map(nil, p.Parallelism, p.Levels+1, func(ci int) (Fig9Row, error) {
		if ci == 0 {
			// Baseline: every kept item inserted as a point into one CAN of
			// the original dimensionality; load = items owned per node.
			return fig9OriginalCAN(data, asg, p)
		}

		// Hyper-M with a growing number of overlays. Load per peer is the
		// item mass of the cluster spheres it owns (centroid in its zone),
		// summed over the configured levels.
		levels := ci
		pl := p
		pl.Levels = levels
		sys, err := newSystem(pl, rand.New(rand.NewSource(pl.Seed+2)))
		if err != nil {
			return Fig9Row{}, err
		}
		loadAssignment(sys, data, asg)
		sys.PublishAll()

		loads := make([]int, pl.Peers)
		for l := 0; l < levels; l++ {
			cn, ok := sys.Overlay(l).(*can.Overlay)
			if !ok {
				return Fig9Row{}, fmt.Errorf("experiments: overlay %d is not CAN", l)
			}
			addOwnedItemMass(cn, loads)
		}
		st := eval.Load(loads)
		return Fig9Row{
			Config:        configName(levels),
			NonEmptyPeers: st.NonEmpty,
			MaxItems:      st.Max,
			Gini:          st.Gini,
			CV:            st.CV,
		}, nil
	})
}

// fig9OriginalCAN computes the load row for the conventional approach.
func fig9OriginalCAN(data [][]float64, asg dataset.Assignment, p Params) (Fig9Row, error) {
	cn, err := can.Build(can.Config{
		Nodes: p.Peers,
		Dim:   p.Dim,
		Rng:   rand.New(rand.NewSource(p.Seed + 3)),
	})
	if err != nil {
		return Fig9Row{}, err
	}
	m := newPointMapper(data, p.Dim)
	for peer, ids := range asg.PeerItems {
		for _, id := range ids {
			cn.InsertSphere(peer, overlay.Entry{Key: m.key(data[id]), Payload: 1})
		}
	}
	loads := make([]int, p.Peers)
	addOwnedItemMass(cn, loads)
	st := eval.Load(loads)
	return Fig9Row{
		Config:        "CAN-original",
		NonEmptyPeers: st.NonEmpty,
		MaxItems:      st.Max,
		Gini:          st.Gini,
		CV:            st.CV,
	}, nil
}

// addOwnedItemMass accumulates per-node item mass: a cluster payload counts
// the items it summarizes, a raw item counts one.
func addOwnedItemMass(cn *can.Overlay, loads []int) {
	for id := range loads {
		for _, e := range cn.OwnedEntries(id) {
			if ref, ok := e.Payload.(core.ClusterRef); ok {
				loads[id] += ref.Items
			} else {
				loads[id]++
			}
		}
	}
}

func configName(levels int) string {
	parts := []string{"A"}
	for l := 1; l < levels; l++ {
		parts = append(parts, wavelet.SubspaceName(l))
	}
	return strings.Join(parts, "+")
}

// RenderFig9 formats the rows as the CLI table.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — data distribution among nodes (skewed corpus)\n")
	fmt.Fprintf(&b, "%-16s %-16s %-12s %-10s %-10s\n", "config", "non-empty peers", "max items", "Gini", "CV")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-16d %-12d %-10s %-10s\n",
			r.Config, r.NonEmptyPeers, r.MaxItems, fmtF(r.Gini), fmtF(r.CV))
	}
	return b.String()
}
