package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hyperm/internal/baton"
	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/dataset"
	"hyperm/internal/eval"
	"hyperm/internal/manet"
	"hyperm/internal/overlay"
	"hyperm/internal/parallel"
	"hyperm/internal/ring"
	"hyperm/internal/sim"
)

// EnergyRow compares the modeled physical cost of building the data index
// with Hyper-M versus the conventional per-item CAN insertion, on the same
// MANET deployment. This quantifies the paper's §1 energy motivation, which
// the published evaluation reports only through overlay hop counts.
type EnergyRow struct {
	System string
	// OverlayMessages is the count of overlay-level messages sent.
	OverlayMessages int
	// PhysTransmissions is the total radio transmissions after expanding
	// each overlay message into its physical multi-hop path.
	PhysTransmissions int
	// Joules is the modeled radio energy for the whole construction.
	Joules float64
	// MakespanSeconds is the modeled wall-clock time with all peers
	// publishing in parallel (discrete-event simulated).
	MakespanSeconds float64
}

// EnergyParams extends Params with the physical layer.
type EnergyParams struct {
	Params
	// ArenaSide and Range describe the deployment (§1's conference hall:
	// 50 m arena, Bluetooth-class 15 m radios by default).
	ArenaSide, Range float64
}

// Every overlay message is modeled as messageBytes (a cluster summary or
// routed item key plus headers) and every physical hop as hopLatencySeconds.
const (
	messageBytes      = 256
	hopLatencySeconds = 0.02
)

// DefaultEnergyParams returns a scaled-down energy experiment configuration.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		Params:    DefaultParams(),
		ArenaSide: 50,
		Range:     15,
	}
}

// ExtEnergy builds the same corpus twice — Hyper-M publication vs per-item
// full-dimensional CAN insertion — charging every overlay message its
// physical multi-hop cost on a shared MANET placement, and simulating
// parallel per-peer publication with the discrete-event engine to obtain
// makespans.
func ExtEnergy(p EnergyParams) ([]EnergyRow, error) {
	phys, err := manet.New(manet.Config{
		Nodes:     p.Peers,
		ArenaSide: p.ArenaSide,
		Range:     p.Range,
	}, rand.New(rand.NewSource(p.Seed+90)))
	if err != nil {
		return nil, err
	}

	data, asg := markovData(p.Params)

	// charge accumulates the physical expansion of overlay messages.
	type account struct {
		msgs, transmissions int
		joules              float64
	}
	newObserver := func(acc *account) overlay.Observer {
		return func(from, to int) {
			cost := phys.Cost(from, to, messageBytes, manet.DefaultEnergy, hopLatencySeconds)
			acc.msgs++
			acc.transmissions += cost.PhysHops
			acc.joules += cost.Joules
		}
	}

	// Hyper-M: per-level overlays with the charging observer; parallel
	// publication simulated per peer.
	var hyperAcc account
	factory := func(level, keyDim, peers int) (overlay.Network, error) {
		return can.Build(can.Config{
			Nodes:    peers,
			Dim:      keyDim,
			Rng:      rand.New(rand.NewSource(p.Seed*100 + int64(level))),
			Observer: newObserver(&hyperAcc),
		})
	}
	sys, err := core.NewSystem(core.Config{
		Peers:           p.Peers,
		Dim:             p.Dim,
		Levels:          p.Levels,
		ClustersPerPeer: p.ClustersPerPeer,
		Factory:         factory,
		Rng:             rand.New(rand.NewSource(p.Seed + 91)),
		Parallelism:     p.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	loadAssignment(sys, data, asg)
	sys.DeriveBounds()
	hyperAcc = account{} // discount join traffic: both systems need a built overlay

	// Parallel publication: each peer's publish runs as one event; its
	// duration is its own message cost. The makespan is the engine time
	// after all peers finish.
	var engine sim.Engine
	var hyperMakespan float64
	for peer := 0; peer < p.Peers; peer++ {
		peer := peer
		engine.Schedule(0, func() {
			before := hyperAcc.transmissions
			sys.PublishPeer(peer)
			dur := float64(hyperAcc.transmissions-before) * hopLatencySeconds
			engine.Schedule(dur, func() {
				if engine.Now() > hyperMakespan {
					hyperMakespan = engine.Now()
				}
			})
		})
	}
	engine.Run()

	// Conventional CAN: per-item insertion, same accounting.
	var canAcc account
	cn, err := can.Build(can.Config{
		Nodes:    p.Peers,
		Dim:      p.Dim,
		Rng:      rand.New(rand.NewSource(p.Seed + 92)),
		Observer: newObserver(&canAcc),
	})
	if err != nil {
		return nil, err
	}
	canAcc = account{}
	m := newPointMapper(data, p.Dim)
	var canEngine sim.Engine
	var canMakespan float64
	for peer, ids := range asg.PeerItems {
		peer, ids := peer, ids
		canEngine.Schedule(0, func() {
			before := canAcc.transmissions
			for _, id := range ids {
				cn.InsertSphere(peer, overlay.Entry{Key: m.key(data[id]), Payload: id})
			}
			dur := float64(canAcc.transmissions-before) * hopLatencySeconds
			canEngine.Schedule(dur, func() {
				if canEngine.Now() > canMakespan {
					canMakespan = canEngine.Now()
				}
			})
		})
	}
	canEngine.Run()

	return []EnergyRow{
		{System: "Hyper-M", OverlayMessages: hyperAcc.msgs, PhysTransmissions: hyperAcc.transmissions,
			Joules: hyperAcc.joules, MakespanSeconds: hyperMakespan},
		{System: "CAN-per-item", OverlayMessages: canAcc.msgs, PhysTransmissions: canAcc.transmissions,
			Joules: canAcc.joules, MakespanSeconds: canMakespan},
	}, nil
}

// OverlayIndepRow compares the same Hyper-M pipeline over two different
// overlay substrates — the paper's §5 independence claim.
type OverlayIndepRow struct {
	Overlay string
	// AvgHopsPerItem is the publication cost per data item.
	AvgHopsPerItem float64
	// RecallAvg is the unlimited-budget range-query recall (must be 1.0 on
	// both substrates: the no-false-dismissal property is overlay-agnostic).
	RecallAvg float64
}

// ExtOverlayIndependence runs publication plus range queries on CAN and on
// the z-order ring.
func ExtOverlayIndependence(p EffectivenessParams) ([]OverlayIndepRow, error) {
	factories := []struct {
		name string
		f    core.OverlayFactory
	}{
		{"CAN", canFactory(p.Seed + 10)},
		{"z-order ring", func(level, keyDim, peers int) (overlay.Network, error) {
			return ring.Build(ring.Config{
				Nodes: peers,
				Dim:   keyDim,
				Rng:   rand.New(rand.NewSource(p.Seed*10 + int64(level))),
			})
		}},
		{"BATON", func(level, keyDim, peers int) (overlay.Network, error) {
			return baton.Build(baton.Config{
				Nodes: peers,
				Dim:   keyDim,
				Rng:   rand.New(rand.NewSource(p.Seed*10 + int64(level))),
			})
		}},
	}
	// One cell per substrate: each regenerates its corpus from the same seed
	// and builds its own overlays, so the cells run concurrently.
	return parallel.Map(nil, p.Parallelism, len(factories), func(ci int) (OverlayIndepRow, error) {
		fac := factories[ci]
		rng := rand.New(rand.NewSource(p.Seed))
		data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
		sys, err := core.NewSystem(core.Config{
			Peers:           p.Peers,
			Dim:             p.Bins,
			Levels:          p.Levels,
			ClustersPerPeer: p.ClustersPerPeer,
			Factory:         fac.f,
			Rng:             rng,
			Parallelism:     p.Parallelism,
		})
		if err != nil {
			return OverlayIndepRow{}, err
		}
		for i, x := range data {
			sys.AddPeerData(labels[i]%p.Peers, []int{i}, [][]float64{x})
		}
		st := sys.PublishAll()

		truth := flatindexOf(data)
		qrng := rand.New(rand.NewSource(p.Seed + 70))
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
		return OverlayIndepRow{
			Overlay:        fac.name,
			AvgHopsPerItem: safeDiv(st.Hops, sys.TotalItems()),
			RecallAvg:      sumR / float64(nq),
		}, nil
	})
}

// AggRow compares score-aggregation policies (§3.2 ablation) under a fixed
// peer budget, where the policies actually differ in which peers they rank
// highest.
type AggRow struct {
	Policy string
	// RecallAvg is range-query recall with a budget of p.Peers/5 contacts.
	RecallAvg float64
	// PeersWithScore is the average number of candidate peers surfaced —
	// min prunes harder than sum.
	PeersWithScore float64
}

// ExtAggregation measures how the min/sum/mean policies trade candidate-set
// size against budgeted recall.
func ExtAggregation(p EffectivenessParams) ([]AggRow, error) {
	budget := p.Peers / 5
	if budget < 1 {
		budget = 1
	}
	policies := []core.Aggregation{core.AggMin, core.AggSum, core.AggMean}
	// One independent cell per aggregation policy.
	return parallel.Map(nil, p.Parallelism, len(policies), func(ci int) (AggRow, error) {
		agg := policies[ci]
		rng := rand.New(rand.NewSource(p.Seed))
		data, labels := dataset.ALOI(dataset.ALOIConfig{Objects: p.Objects, Views: p.Views, Bins: p.Bins}, rng)
		sys, err := core.NewSystem(core.Config{
			Peers:           p.Peers,
			Dim:             p.Bins,
			Levels:          p.Levels,
			ClustersPerPeer: p.ClustersPerPeer,
			Aggregation:     agg,
			Factory:         canFactory(p.Seed + 10),
			Rng:             rng,
			Parallelism:     p.Parallelism,
		})
		if err != nil {
			return AggRow{}, err
		}
		for i, x := range data {
			sys.AddPeerData(labels[i]%p.Peers, []int{i}, [][]float64{x})
		}
		sys.PublishAll()

		truth := flatindexOf(data)
		qrng := rand.New(rand.NewSource(p.Seed + 71))
		var sumR, sumC float64
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
			sumC += float64(len(res.Scores))
			nq++
		}
		return AggRow{
			Policy:         agg.String(),
			RecallAvg:      sumR / float64(nq),
			PeersWithScore: sumC / float64(nq),
		}, nil
	})
}

// RenderEnergy formats the rows as the CLI table.
func RenderEnergy(rows []EnergyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — modeled energy and makespan of index construction on a MANET\n")
	fmt.Fprintf(&b, "%-14s %-18s %-20s %-12s %-14s\n", "system", "overlay messages", "phys transmissions", "joules", "makespan (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-18d %-20d %-12.4f %-14.2f\n",
			r.System, r.OverlayMessages, r.PhysTransmissions, r.Joules, r.MakespanSeconds)
	}
	return b.String()
}

// RenderOverlayIndep formats the rows as the CLI table.
func RenderOverlayIndep(rows []OverlayIndepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — overlay independence (same pipeline, different substrates)\n")
	fmt.Fprintf(&b, "%-14s %-16s %-12s\n", "overlay", "hops per item", "recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-16s %-12s\n", r.Overlay, fmtF(r.AvgHopsPerItem), fmtF(r.RecallAvg))
	}
	return b.String()
}

// RenderAgg formats the rows as the CLI table.
func RenderAgg(rows []AggRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — score aggregation policy ablation (budgeted range queries)\n")
	fmt.Fprintf(&b, "%-8s %-12s %-18s\n", "policy", "recall", "candidate peers")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-12s %-18s\n", r.Policy, fmtF(r.RecallAvg), fmtF(r.PeersWithScore))
	}
	return b.String()
}
