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

// ChurnRow measures retrieval under peer failures — devices crashing or
// walking out of radio range after the overlay is built, the defining
// MANET hazard. Two recall figures separate the two damage mechanisms:
//
//   - RecallVsAll is measured against the full original corpus; it bounds
//     from above how much data is simply gone with its owners.
//   - RecallVsSurviving is measured against only the items held by peers
//     that are still alive; any shortfall here is index damage — summaries
//     and replicas lost with the failed overlay nodes.
type ChurnRow struct {
	// Mode is "crash" (index records lost with the node) or "graceful"
	// (records handed to neighbors first — the CAN departure protocol).
	Mode string
	// FailedPercent is the fraction of peers killed after publication.
	FailedPercent float64
	// RecallVsAll is range recall against the full corpus.
	RecallVsAll float64
	// RecallVsSurviving is range recall against reachable items only.
	RecallVsSurviving float64
	// IndexRecordsLost counts overlay records wiped with the dead nodes.
	IndexRecordsLost int
}

// ExtChurn publishes the effectiveness corpus, then fails growing fractions
// of peers and measures both recall figures.
func ExtChurn(p EffectivenessParams, failFractions []float64) ([]ChurnRow, error) {
	if len(failFractions) == 0 {
		failFractions = []float64{0, 0.1, 0.2, 0.3, 0.5}
	}
	// Every (mode, fraction) pair is an independent cell: it publishes its
	// own system and kills its own peers. Flatten the grid and fan it out.
	type cell struct {
		mode string
		fi   int
	}
	var cells []cell
	for _, mode := range []string{"crash", "graceful"} {
		for fi := range failFractions {
			cells = append(cells, cell{mode: mode, fi: fi})
		}
	}
	return parallel.Map(nil, p.Parallelism, len(cells), func(ci int) (ChurnRow, error) {
		return extChurnCell(p, failFractions[cells[ci].fi], cells[ci].fi, cells[ci].mode)
	})
}

func extChurnCell(p EffectivenessParams, frac float64, fi int, mode string) (ChurnRow, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
	sys, err := core.NewSystem(core.Config{
		Peers:           p.Peers,
		Dim:             p.Bins,
		Levels:          p.Levels,
		ClustersPerPeer: p.ClustersPerPeer,
		Factory:         canFactory(p.Seed + 10),
		Rng:             rng,
		Parallelism:     p.Parallelism,
	})
	if err != nil {
		return ChurnRow{}, err
	}
	peerOf := make([]int, len(data))
	for i, x := range data {
		peerOf[i] = labels[i] % p.Peers
		sys.AddPeerData(peerOf[i], []int{i}, [][]float64{x})
	}
	sys.PublishAll()

	// Kill a random subset of peers.
	krng := rand.New(rand.NewSource(p.Seed + int64(fi)*131))
	nFail := int(frac * float64(p.Peers))
	dead := map[int]bool{}
	lost := 0
	for _, peer := range krng.Perm(p.Peers)[:nFail] {
		dead[peer] = true
		if mode == "graceful" {
			if _, err := sys.LeavePeer(peer); err != nil {
				return ChurnRow{}, err
			}
		} else {
			lost += sys.FailPeer(peer)
		}
	}

	// Ground truths.
	truthAll := flatindex.New(data)
	var surviving []int
	for i := range data {
		if !dead[peerOf[i]] {
			surviving = append(surviving, i)
		}
	}
	survVecs := make([][]float64, len(surviving))
	for j, i := range surviving {
		survVecs[j] = data[i]
	}
	truthSurv := flatindex.New(survVecs)

	qrng := rand.New(rand.NewSource(p.Seed + 95))
	var sumAll, sumSurv float64
	var nq int
	for nq < p.Queries {
		// Query from a surviving item so the querier itself is alive.
		qi := surviving[qrng.Intn(len(surviving))]
		q := data[qi]
		eps := 0.03 + qrng.Float64()*0.09
		relAll := truthAll.Range(q, eps)
		relSurvLocal := truthSurv.Range(q, eps)
		if len(relAll) < 2 {
			continue
		}
		relSurv := make([]int, len(relSurvLocal))
		for j, id := range relSurvLocal {
			relSurv[j] = surviving[id]
		}
		res := sys.RangeQuery(peerOf[qi], q, eps, core.RangeOptions{})
		_, recAll := eval.PrecisionRecall(res.Items, relAll)
		_, recSurv := eval.PrecisionRecall(res.Items, relSurv)
		sumAll += recAll
		sumSurv += recSurv
		nq++
	}
	return ChurnRow{
		Mode:              mode,
		FailedPercent:     frac * 100,
		RecallVsAll:       sumAll / float64(nq),
		RecallVsSurviving: sumSurv / float64(nq),
		IndexRecordsLost:  lost,
	}, nil
}

// RenderChurn formats the rows as the CLI table.
func RenderChurn(rows []ChurnRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — peer failures after publication (churn)\n")
	fmt.Fprintf(&b, "%-10s %-12s %-16s %-20s %-18s\n", "mode", "failed %", "recall vs all", "recall vs surviving", "index records lost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12.0f %-16s %-20s %-18d\n",
			r.Mode, r.FailedPercent, fmtF(r.RecallVsAll), fmtF(r.RecallVsSurviving), r.IndexRecordsLost)
	}
	return b.String()
}
