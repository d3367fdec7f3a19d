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
)

// LossRow measures end-to-end retrieval quality when the radio medium drops
// a fraction of overlay messages — MANET links are lossy, and the paper's
// replication scheme has no repair protocol, so lost replicas and lost
// search-flood messages translate directly into recall loss. This is the
// repository's failure-injection study.
type LossRow struct {
	// DropRate is the per-message loss probability.
	DropRate float64
	// Recall is unlimited-budget range recall (1.0 at zero loss by
	// Theorem 4.1; degrades as coverage decays).
	Recall float64
	// HopsPerItem shows the retransmission overhead on publication.
	HopsPerItem float64
}

// ExtLoss sweeps the message drop rate.
func ExtLoss(p EffectivenessParams, dropRates []float64) ([]LossRow, error) {
	if len(dropRates) == 0 {
		dropRates = []float64{0, 0.05, 0.1, 0.2, 0.4}
	}
	// One independent cell per drop rate (own corpus, own lossy overlays).
	return parallel.Map(nil, p.Parallelism, len(dropRates), func(ci int) (LossRow, error) {
		drop := dropRates[ci]
		rng := rand.New(rand.NewSource(p.Seed))
		data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
		factory := func(level, keyDim, peers int) (overlay.Network, error) {
			return can.Build(can.Config{
				Nodes:    peers,
				Dim:      keyDim,
				Rng:      rand.New(rand.NewSource(p.Seed*1000 + int64(level))),
				DropRate: drop,
				FailRng:  rand.New(rand.NewSource(p.Seed*77 + int64(level))),
			})
		}
		sys, err := core.NewSystem(core.Config{
			Peers:           p.Peers,
			Dim:             p.Bins,
			Levels:          p.Levels,
			ClustersPerPeer: p.ClustersPerPeer,
			Factory:         factory,
			Rng:             rng,
			Parallelism:     p.Parallelism,
		})
		if err != nil {
			return LossRow{}, err
		}
		for i, x := range data {
			sys.AddPeerData(labels[i]%p.Peers, []int{i}, [][]float64{x})
		}
		st := sys.PublishAll()

		truth := flatindexOf(data)
		qrng := rand.New(rand.NewSource(p.Seed + 90))
		var sumR float64
		var nq int
		for nq < p.Queries {
			q := data[qrng.Intn(len(data))]
			eps := 0.03 + qrng.Float64()*0.09
			rel := truth.Range(q, eps)
			if len(rel) < 2 {
				continue
			}
			res := sys.RangeQuery(0, q, eps, core.RangeOptions{})
			_, rec := eval.PrecisionRecall(res.Items, rel)
			sumR += rec
			nq++
		}
		return LossRow{
			DropRate:    drop,
			Recall:      sumR / float64(nq),
			HopsPerItem: safeDiv(st.Hops, sys.TotalItems()),
		}, nil
	})
}

// RenderLoss formats the rows as the CLI table.
func RenderLoss(rows []LossRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — failure injection: recall under message loss\n")
	fmt.Fprintf(&b, "%-12s %-12s %-14s\n", "drop rate", "recall", "hops/item")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.2f %-12s %-14s\n", r.DropRate, fmtF(r.Recall), fmtF(r.HopsPerItem))
	}
	return b.String()
}
