package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperm/internal/core"
	"hyperm/internal/dataset"
	"hyperm/internal/eval"
	"hyperm/internal/parallel"
	"hyperm/internal/wavelet"
)

// LevelsRow is one point of the levels study: the paper chooses four wavelet
// levels because "using more than four levels incurs additional overhead
// that is not justified by the improvements in precision and recall"
// (§3, §6.1.1). This experiment reproduces that trade-off: publication cost
// rises with every level while budgeted retrieval quality saturates.
type LevelsRow struct {
	Levels int
	// HopsPerItem is the publication cost.
	HopsPerItem float64
	// RecallBudgeted is range-query recall with a fixed peer budget
	// (Peers/5) — the quality the extra levels are supposed to buy.
	RecallBudgeted float64
	// KnnPrecision and KnnRecall measure k-nn quality at C=1.
	KnnPrecision, KnnRecall float64
}

// ExtLevels sweeps the number of wavelet levels on the effectiveness corpus.
func ExtLevels(p EffectivenessParams, levelSweep []int) ([]LevelsRow, error) {
	if len(levelSweep) == 0 {
		levelSweep = []int{1, 2, 3, 4, 5, 6}
	}
	budget := p.Peers / 5
	if budget < 1 {
		budget = 1
	}
	var valid []int
	for _, levels := range levelSweep {
		if levels <= wavelet.NumSubspaces(p.Bins) {
			valid = append(valid, levels)
		}
	}
	// One cell per level count, each with its own published system.
	return parallel.Map(nil, p.Parallelism, len(valid), func(ci int) (LevelsRow, error) {
		pl := p
		pl.Levels = valid[ci]
		sys, data, truth, err := aloiSystem(pl, pl.ClustersPerPeer)
		if err != nil {
			return LevelsRow{}, err
		}
		st := publishStatsOf(sys)

		qrng := rand.New(rand.NewSource(p.Seed + 80))
		var sumR, sumKP, sumKR float64
		var nq int
		for nq < p.Queries {
			q := data[qrng.Intn(len(data))]
			eps := 0.03 + qrng.Float64()*0.09
			rel := truth.Range(q, eps)
			if len(rel) < 2 {
				continue
			}
			res := sys.RangeQuery(0, q, eps, core.RangeOptions{MaxPeers: budget})
			_, rec := eval.PrecisionRecall(res.Items, rel)
			sumR += rec

			k := 10
			relK := truth.KNN(q, k)
			kres := sys.KNNQuery(0, q, k, core.KNNOptions{})
			kp, kr := eval.PrecisionRecall(kres.Items, relK)
			sumKP += kp
			sumKR += kr
			nq++
		}
		return LevelsRow{
			Levels:         pl.Levels,
			HopsPerItem:    st,
			RecallBudgeted: sumR / float64(nq),
			KnnPrecision:   sumKP / float64(nq),
			KnnRecall:      sumKR / float64(nq),
		}, nil
	})
}

// publishStatsOf re-derives hops/item from the published system. aloiSystem
// publishes internally, so we reconstruct the cost from the CAN statistics.
func publishStatsOf(sys *core.System) float64 {
	var hops int
	for l := 0; ; l++ {
		if l >= sys.Config().Levels {
			break
		}
		if cs, ok := canStats(sys.Overlay(l)); ok {
			hops += cs.InsertRouteHops + cs.InsertReplicationHops
		}
	}
	if sys.TotalItems() == 0 {
		return 0
	}
	return float64(hops) / float64(sys.TotalItems())
}

// WaveletRow compares Haar conventions and Daubechies-4 as the
// multiresolution front end (footnote 2 of the paper: the framework extends
// beyond the Haar wavelet).
type WaveletRow struct {
	Convention string
	// HopsPerItem is the publication cost.
	HopsPerItem float64
	// Recall is unlimited-budget range recall (must be 1.0 for every
	// convention whose radius bound is sound).
	Recall float64
	// RecallBudgeted is recall with a Peers/5 budget — where the
	// conventions actually differ.
	RecallBudgeted float64
}

// ExtWavelet runs the pipeline under each wavelet convention.
func ExtWavelet(p EffectivenessParams) ([]WaveletRow, error) {
	budget := p.Peers / 5
	if budget < 1 {
		budget = 1
	}
	conventions := []wavelet.Convention{wavelet.Averaging, wavelet.Orthonormal, wavelet.Daubechies4}
	// One independent cell per wavelet convention.
	return parallel.Map(nil, p.Parallelism, len(conventions), func(ci int) (WaveletRow, error) {
		conv := conventions[ci]
		rng := rand.New(rand.NewSource(p.Seed))
		data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
		sys, err := core.NewSystem(core.Config{
			Peers:           p.Peers,
			Dim:             p.Bins,
			Levels:          p.Levels,
			ClustersPerPeer: p.ClustersPerPeer,
			Convention:      conv,
			Factory:         canFactory(p.Seed + 10),
			Rng:             rng,
			Parallelism:     p.Parallelism,
		})
		if err != nil {
			return WaveletRow{}, err
		}
		for i, x := range data {
			sys.AddPeerData(labels[i]%p.Peers, []int{i}, [][]float64{x})
		}
		st := sys.PublishAll()

		truth := flatindexOf(data)
		qrng := rand.New(rand.NewSource(p.Seed + 81))
		var sumFull, sumBudget float64
		var nq int
		for nq < p.Queries {
			q := data[qrng.Intn(len(data))]
			eps := 0.03 + qrng.Float64()*0.09
			rel := truth.Range(q, eps)
			if len(rel) < 2 {
				continue
			}
			full := sys.RangeQuery(0, q, eps, core.RangeOptions{})
			_, rf := eval.PrecisionRecall(full.Items, rel)
			sumFull += rf
			lim := sys.RangeQuery(0, q, eps, core.RangeOptions{MaxPeers: budget})
			_, rb := eval.PrecisionRecall(lim.Items, rel)
			sumBudget += rb
			nq++
		}
		return WaveletRow{
			Convention:     conv.String(),
			HopsPerItem:    safeDiv(st.Hops, sys.TotalItems()),
			Recall:         sumFull / float64(nq),
			RecallBudgeted: sumBudget / float64(nq),
		}, nil
	})
}

// RenderLevels formats the rows as the CLI table.
func RenderLevels(rows []LevelsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — wavelet levels trade-off (cost vs retrieval quality, §6.1.1)\n")
	fmt.Fprintf(&b, "%-8s %-14s %-16s %-14s %-12s\n", "levels", "hops/item", "recall@budget", "knn precision", "knn recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-14s %-16s %-14s %-12s\n", r.Levels,
			fmtF(r.HopsPerItem), fmtF(r.RecallBudgeted), fmtF(r.KnnPrecision), fmtF(r.KnnRecall))
	}
	return b.String()
}

// RenderWavelet formats the rows as the CLI table.
func RenderWavelet(rows []WaveletRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — wavelet convention ablation (paper footnote 2)\n")
	fmt.Fprintf(&b, "%-14s %-14s %-14s %-16s\n", "convention", "hops/item", "recall(full)", "recall@budget")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14s %-14s %-16s\n", r.Convention,
			fmtF(r.HopsPerItem), fmtF(r.Recall), fmtF(r.RecallBudgeted))
	}
	return b.String()
}
