package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperm/internal/core"
	"hyperm/internal/dataset"
	"hyperm/internal/eval"
	"hyperm/internal/flatindex"
	"hyperm/internal/parallel"
)

// aloiSystem builds a published Hyper-M system over the ALOI-substitute
// corpus with a round-robin-over-objects peer assignment (each peer holds a
// few complete objects plus stragglers — users collect whole albums).
func aloiSystem(p EffectivenessParams, clustersPerPeer int) (*core.System, [][]float64, *flatindex.Index, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
	sys, err := core.NewSystem(core.Config{
		Peers:           p.Peers,
		Dim:             p.Bins,
		Levels:          p.Levels,
		ClustersPerPeer: clustersPerPeer,
		Factory:         canFactory(p.Seed + 10),
		Rng:             rng,
		Parallelism:     p.Parallelism,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Whole objects go to one peer: peers have focused collections, the
	// structure §6's clustering exploits.
	for i, x := range data {
		peer := labels[i] % p.Peers
		sys.AddPeerData(peer, []int{i}, [][]float64{x})
	}
	sys.PublishAll()
	return sys, data, flatindex.New(data), nil
}

// Fig10aRow is one bar of Figure 10a: range-query recall as a function of
// the number of peers contacted. Precision is 1.0 throughout — contacted
// peers filter exactly on their original vectors.
type Fig10aRow struct {
	PeersContacted int
	// RecallAvg/Min/Max aggregate recall over the query sample (the paper
	// plots the average with min/max error bounds).
	RecallAvg, RecallMin, RecallMax float64
	// Precision is reported to confirm it stays 1.0.
	Precision float64
}

// Fig10a sweeps the contacted-peer budget for range queries over the
// ALOI-substitute corpus, varying the query radius across the sample as the
// paper does.
func Fig10a(p EffectivenessParams, budgets []int) ([]Fig10aRow, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 2, 3, 5, 8, 12, 0} // 0 = unlimited
	}
	sys, data, truth, err := aloiSystem(p, p.ClustersPerPeer)
	if err != nil {
		return nil, err
	}
	qrng := rand.New(rand.NewSource(p.Seed + 20))
	type query struct {
		q   []float64
		eps float64
		rel []int
	}
	var queries []query
	for len(queries) < p.Queries {
		q := data[qrng.Intn(len(data))]
		eps := 0.02 + qrng.Float64()*0.12 // sweep of radii, as in the paper
		rel := truth.Range(q, eps)
		if len(rel) < 2 {
			continue // trivial queries say nothing about recall
		}
		queries = append(queries, query{q: q, eps: eps, rel: rel})
	}

	rows := make([]Fig10aRow, 0, len(budgets))
	for _, budget := range budgets {
		row := Fig10aRow{PeersContacted: budget, RecallMin: 1, Precision: 1}
		var sumR, sumP float64
		maxContacted := 0
		for _, qu := range queries {
			res := sys.RangeQuery(0, qu.q, qu.eps, core.RangeOptions{MaxPeers: budget})
			prec, rec := eval.PrecisionRecall(res.Items, qu.rel)
			if len(res.Items) == 0 {
				prec = 1 // vacuously precise: nothing wrong was returned
			}
			sumR += rec
			sumP += prec
			if rec < row.RecallMin {
				row.RecallMin = rec
			}
			if rec > row.RecallMax {
				row.RecallMax = rec
			}
			if res.PeersContacted > maxContacted {
				maxContacted = res.PeersContacted
			}
		}
		row.RecallAvg = sumR / float64(len(queries))
		row.Precision = sumP / float64(len(queries))
		if budget == 0 {
			row.PeersContacted = maxContacted // report the realized fan-out
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10bRow is one group of Figure 10b: k-nn precision and recall for a
// clusters-per-peer setting, plus the C-knob study of §6.1.
type Fig10bRow struct {
	ClustersPerPeer            int
	C                          float64
	PrecisionAvg, RecallAvg    float64
	PrecisionMin, PrecisionMax float64
	RecallMin, RecallMax       float64
}

// Fig10b measures k-nn retrieval effectiveness over clusters-per-peer
// settings (paper: 5/10/20) and C values (paper: 1, 1.5, 2), varying k
// across the query sample.
func Fig10b(p EffectivenessParams, clusterSweep []int, cSweep []float64) ([]Fig10bRow, error) {
	if len(clusterSweep) == 0 {
		clusterSweep = []int{5, 10, 20}
	}
	if len(cSweep) == 0 {
		cSweep = []float64{1, 1.5, 2}
	}
	// One cell per clusters-per-peer setting: each builds its own published
	// system. The inner C sweep stays serial within the cell — it queries the
	// cell's shared System, and query bookkeeping mutates overlay statistics.
	cells, err := parallel.Map(nil, p.Parallelism, len(clusterSweep), func(ci int) ([]Fig10bRow, error) {
		kc := clusterSweep[ci]
		sys, data, truth, err := aloiSystem(p, kc)
		if err != nil {
			return nil, err
		}
		var rows []Fig10bRow
		for _, c := range cSweep {
			qrng := rand.New(rand.NewSource(p.Seed + 30))
			row := Fig10bRow{ClustersPerPeer: kc, C: c, PrecisionMin: 1, RecallMin: 1}
			var sumP, sumR float64
			for qi := 0; qi < p.Queries; qi++ {
				q := data[qrng.Intn(len(data))]
				k := 5 + qrng.Intn(16) // k sweep, as in the paper
				rel := truth.KNN(q, k)
				res := sys.KNNQuery(0, q, k, core.KNNOptions{C: c})
				prec, rec := eval.PrecisionRecall(res.Items, rel)
				sumP += prec
				sumR += rec
				row.PrecisionMin = minF(row.PrecisionMin, prec)
				row.PrecisionMax = maxF(row.PrecisionMax, prec)
				row.RecallMin = minF(row.RecallMin, rec)
				row.RecallMax = maxF(row.RecallMax, rec)
			}
			row.PrecisionAvg = sumP / float64(p.Queries)
			row.RecallAvg = sumR / float64(p.Queries)
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10bRow
	for _, cell := range cells {
		rows = append(rows, cell...)
	}
	return rows, nil
}

// Fig10cRow is one point of Figure 10c: recall degradation as documents are
// inserted after the overlay was created (stale summaries).
type Fig10cRow struct {
	// NewDocsPercent is the volume of post-creation insertions relative to
	// the initially published corpus.
	NewDocsPercent float64
	// RecallAvg is the range-query recall against ground truth over the
	// full (old + new) corpus.
	RecallAvg float64
	// RecallLossPercent is the relative loss vs the zero-insertion recall.
	RecallLossPercent float64
}

// Fig10c publishes a base corpus, then post-inserts growing fractions of new
// documents without republishing, measuring recall each time. Queries run
// under a realistic peer budget (a third of the network): with an unlimited
// budget every peer is contacted and staleness costs nothing, which is not
// the regime the figure studies.
func Fig10c(p EffectivenessParams, fractions []float64) ([]Fig10cRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0, 0.09, 0.18, 0.27, 0.36, 0.45}
	}
	budget := p.Peers / 3
	if budget < 2 {
		budget = 2
	}
	rng := rand.New(rand.NewSource(p.Seed))
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)

	// Split per object view: the first views of each object are the
	// published base, later views arrive post-creation (new photos of known
	// subjects — "most new data items fit into the existing clusters").
	baseViews := (p.Views*2 + 2) / 3 // ~70% published up front
	var baseIdx, newIdx []int
	for i := range data {
		if i%p.Views < baseViews {
			baseIdx = append(baseIdx, i)
		} else {
			newIdx = append(newIdx, i)
		}
	}

	// Every fraction is an independent cell (own system, own post-inserts).
	// Only the relative loss couples the rows — and only to cell 0 — so the
	// cells run concurrently and the loss is derived after the ordered merge.
	recalls, err := parallel.Map(nil, p.Parallelism, len(fractions), func(fi int) (float64, error) {
		frac := fractions[fi]
		sys, err := core.NewSystem(core.Config{
			Peers:           p.Peers,
			Dim:             p.Bins,
			Levels:          p.Levels,
			ClustersPerPeer: p.ClustersPerPeer,
			Factory:         canFactory(p.Seed + 40 + int64(fi)),
			Rng:             rand.New(rand.NewSource(p.Seed + 41)),
			Parallelism:     p.Parallelism,
		})
		if err != nil {
			return 0, err
		}
		for _, i := range baseIdx {
			sys.AddPeerData(labels[i]%p.Peers, []int{i}, [][]float64{data[i]})
		}
		sys.PublishAll()

		nNew := int(frac * float64(len(baseIdx)))
		if nNew > len(newIdx) {
			nNew = len(newIdx)
		}
		live := append([]int(nil), baseIdx...)
		irng := rand.New(rand.NewSource(p.Seed + 42))
		for _, i := range newIdx[:nNew] {
			// New documents land on arbitrary devices (whoever took the new
			// photo), not on the peer already holding that object — so the
			// receiving peer's published summaries do not describe them.
			// This is the staleness Fig 10c measures.
			sys.PostInsert(irng.Intn(p.Peers), i, data[i])
			live = append(live, i)
		}

		// Ground truth over everything currently in the network.
		liveVecs := make([][]float64, len(live))
		for j, i := range live {
			liveVecs[j] = data[i]
		}
		truth := flatindex.New(liveVecs)
		toGlobal := live // truth ids -> global ids

		qrng := rand.New(rand.NewSource(p.Seed + 50))
		var sumR float64
		var nq int
		for nq < p.Queries {
			q := data[live[qrng.Intn(len(live))]]
			eps := 0.03 + qrng.Float64()*0.09
			relLocal := truth.Range(q, eps)
			if len(relLocal) < 2 {
				continue
			}
			rel := make([]int, len(relLocal))
			for j, id := range relLocal {
				rel[j] = toGlobal[id]
			}
			res := sys.RangeQuery(0, q, eps, core.RangeOptions{MaxPeers: budget})
			_, rec := eval.PrecisionRecall(res.Items, rel)
			sumR += rec
			nq++
		}
		return sumR / float64(nq), nil
	})
	if err != nil {
		return nil, err
	}

	baselineRecall := recalls[0] // fractions[0] is the zero-insertion run
	rows := make([]Fig10cRow, 0, len(fractions))
	for fi, frac := range fractions {
		loss := 0.0
		if baselineRecall > 0 {
			loss = 100 * (baselineRecall - recalls[fi]) / baselineRecall
		}
		rows = append(rows, Fig10cRow{
			NewDocsPercent:    frac * 100,
			RecallAvg:         recalls[fi],
			RecallLossPercent: loss,
		})
	}
	return rows, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RenderFig10a formats the rows as the CLI table.
func RenderFig10a(rows []Fig10aRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10a — range query recall vs peers contacted (precision is 1.0 by construction)\n")
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-12s\n", "peers contacted", "recall avg", "recall min", "recall max", "precision")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16d %-12s %-12s %-12s %-12s\n", r.PeersContacted,
			fmtF(r.RecallAvg), fmtF(r.RecallMin), fmtF(r.RecallMax), fmtF(r.Precision))
	}
	return b.String()
}

// RenderFig10b formats the rows as the CLI table.
func RenderFig10b(rows []Fig10bRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10b — k-nn precision/recall vs clusters per peer and C knob\n")
	fmt.Fprintf(&b, "%-14s %-6s %-12s %-12s %-22s %-22s\n", "clusters/peer", "C", "precision", "recall", "precision min/max", "recall min/max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14d %-6.2f %-12s %-12s %-22s %-22s\n", r.ClustersPerPeer, r.C,
			fmtF(r.PrecisionAvg), fmtF(r.RecallAvg),
			fmtF(r.PrecisionMin)+"/"+fmtF(r.PrecisionMax),
			fmtF(r.RecallMin)+"/"+fmtF(r.RecallMax))
	}
	return b.String()
}

// RenderFig10c formats the rows as the CLI table.
func RenderFig10c(rows []Fig10cRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10c — recall loss vs documents inserted after overlay creation\n")
	fmt.Fprintf(&b, "%-14s %-12s %-14s\n", "new docs %", "recall", "recall loss %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14.1f %-12s %-14.2f\n", r.NewDocsPercent, fmtF(r.RecallAvg), r.RecallLossPercent)
	}
	return b.String()
}
