package core

import (
	"fmt"
	"math/rand"

	"hyperm/internal/cluster"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/store"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// This file implements streaming incremental publish: instead of letting the
// published summaries go stale after post-creation inserts (the Fig 10c
// degradation) or re-running the whole publish pipeline, a publisher updates
// its published cluster spheres in place and ships O(changed clusters) record
// deltas per insert. The kernel is substrate-neutral — the simulator
// (System.StreamInsert) applies the deltas through overlay.StreamUpdater, a
// live node ships them as store_rec RPCs — so both sides replay the identical
// op sequence and stay byte-identical.

// growSlack is how far past a cluster's radius an insert may land and still
// grow the cluster instead of founding a new one, as a multiple of the
// current radius.
const growSlack = 1.25

// StreamTuning configures the incremental publish kernel.
type StreamTuning struct {
	// ReclusterEvery re-runs the full per-level k-means after this many
	// streamed inserts, collapsing accumulated grow/split drift back to the
	// batch-publish quality. 0 disables periodic re-clustering.
	ReclusterEvery int
}

// StreamDelta is one overlay record operation produced by the kernel: an
// upsert (Del false — replace the record with Rec.Seq in place, or store it
// where absent) or a delete. Rec carries the full record value, so applying
// a delta needs no other context.
type StreamDelta struct {
	Level int
	Del   bool
	Rec   route.RecordView
}

// StreamState is the kernel's per-publisher counters. A fresh state (epoch 0,
// nothing streamed) is correct whenever both substrates start streaming from
// the same published snapshot.
type StreamState struct {
	tuning  StreamTuning
	epoch   int   // bumped on every re-cluster; part of record identity
	inserts int   // streamed inserts since the last re-cluster
	nextIdx []int // per-level counter of stream-created records this epoch
}

// NewStreamState builds the kernel state for a publisher with the given
// number of wavelet levels.
func NewStreamState(t StreamTuning, levels int) *StreamState {
	return &StreamState{tuning: t, nextIdx: make([]int, levels)}
}

// streamSeq derives the identity of a stream-created record. Overlay-assigned
// sequence numbers count up from zero, so the 1<<40 offset keeps the two
// identity spaces disjoint; peer/level/epoch/idx make the number unique and
// equal on every substrate. The packing bounds (8 levels, 1024 epochs, 1024
// stream records per level per epoch) are far beyond any supported
// configuration; ReclusterEvery resets idx each epoch.
func streamSeq(peer, level, epoch, idx int) int {
	if level >= 8 || epoch >= 1024 || idx >= 1024 {
		panic(fmt.Sprintf("core: stream seq overflow (level=%d epoch=%d idx=%d)", level, epoch, idx))
	}
	return 1<<40 + (peer*8+level)<<20 + epoch*1024 + idx
}

// reclusterSeed is the deterministic k-means seed for a publisher's
// re-cluster at the given epoch — derivable on any substrate without shared
// RNG state.
func reclusterSeed(peer, epoch int) int64 {
	return int64(peer+1)*1_000_003 + int64(epoch)
}

// KeyMapper is the exported face of the per-level key mapping (keyMapper):
// it translates subspace coordinates and radii into the overlay key space, so
// serving nodes build record entries with exactly the simulator's rule.
type KeyMapper struct{ m keyMapper }

// BuildKeyMappers derives the per-level key mappers from coefficient bounds.
func BuildKeyMappers(bounds []Bounds) []KeyMapper {
	ms := buildMappers(bounds)
	out := make([]KeyMapper, len(ms))
	for i, m := range ms {
		out[i] = KeyMapper{m}
	}
	return out
}

// MapPoint maps a subspace vector into the key space.
func (k KeyMapper) MapPoint(p []float64) []float64 { return k.m.mapPoint(p) }

// MapRadius converts a subspace radius to key-space units.
func (k KeyMapper) MapRadius(r float64) float64 { return k.m.mapRadius(r) }

// EntryRadius is the radius a published record carries: the mapped radius
// plus the conservative boundary slack every publish path applies.
func (k KeyMapper) EntryRadius(r float64) float64 { return slacken(k.m.mapRadius(r)) }

// StreamPublisher bundles the mutable publisher-side state the kernel
// operates on. The simulator builds one per StreamInsert around its
// peerState; a live node keeps one alive across Publish RPCs. Published and
// PubSeqs are mutated in place (and replaced wholesale on re-cluster), so
// callers must read them back after Insert.
type StreamPublisher struct {
	Peer            int
	Convention      wavelet.Convention
	ClustersPerPeer int // K for periodic re-clustering
	Mappers         []KeyMapper
	Published       [][]ClusterRef
	PubSeqs         [][]int
	State           *StreamState
}

// Insert runs the kernel for one item (already appended to the publisher's
// store st) and returns the ordered record deltas to announce. Per level, the
// item joins the nearest published cluster by centroid distance (ties to the
// lowest index): within the radius it is absorbed (count bump), within
// growSlack of the radius the cluster grows to cover it, and otherwise it
// founds a new singleton cluster. Every ReclusterEvery-th insert instead
// rebuilds the whole clustering from st. Each path announces only the
// changed records — one upsert per level in the steady state.
func (sp *StreamPublisher) Insert(item []float64, st *store.Store) []StreamDelta {
	sp.State.inserts++
	if re := sp.State.tuning.ReclusterEvery; re > 0 && sp.State.inserts >= re {
		return sp.recluster(st)
	}
	dec := wavelet.Decompose(item, sp.Convention)
	var deltas []StreamDelta
	for l := range sp.Published {
		refs := sp.Published[l]
		coeff := dec.Subspace(l)
		best, bestD := -1, 0.0
		for i := range refs {
			if d := vec.Dist(coeff, refs[i].Center); best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		switch {
		case best >= 0 && bestD <= refs[best].Radius:
			refs[best].Items++
			deltas = append(deltas, sp.upsertDelta(l, best, false))
		case best >= 0 && refs[best].Radius > 0 && bestD <= growSlack*refs[best].Radius:
			refs[best].Radius = bestD
			refs[best].Items++
			deltas = append(deltas, sp.upsertDelta(l, best, false))
		default:
			idx := sp.State.nextIdx[l]
			sp.State.nextIdx[l]++
			sp.Published[l] = append(refs, ClusterRef{
				Peer:   sp.Peer,
				Level:  l,
				Index:  len(refs),
				Center: append([]float64(nil), coeff...),
				Items:  1,
			})
			sp.PubSeqs[l] = append(sp.PubSeqs[l], streamSeq(sp.Peer, l, sp.State.epoch, idx))
			deltas = append(deltas, sp.upsertDelta(l, len(sp.Published[l])-1, false))
		}
	}
	return deltas
}

// recluster retires every published record, re-runs the per-level k-means
// over the full store under a fresh epoch, and announces the new records.
func (sp *StreamPublisher) recluster(st *store.Store) []StreamDelta {
	var deltas []StreamDelta
	for l := range sp.Published {
		for i := range sp.Published[l] {
			deltas = append(deltas, sp.upsertDelta(l, i, true))
		}
	}
	sp.State.epoch++
	sp.State.inserts = 0
	rng := rand.New(rand.NewSource(reclusterSeed(sp.Peer, sp.State.epoch)))
	levels := len(sp.Published)
	pub := make([][]ClusterRef, levels)
	seqs := make([][]int, levels)
	for l, coeffs := range wavelet.SubspaceMatrices(st.Rows(), levels, sp.Convention) {
		res := cluster.KMeans(coeffs, cluster.Config{K: sp.ClustersPerPeer, Rng: rng})
		for idx, c := range res.Clusters {
			pub[l] = append(pub[l], ClusterRef{
				Peer:   sp.Peer,
				Level:  l,
				Index:  idx,
				Center: c.Centroid,
				Radius: c.Radius,
				Items:  c.Count,
			})
			seqs[l] = append(seqs[l], streamSeq(sp.Peer, l, sp.State.epoch, idx))
		}
		sp.State.nextIdx[l] = len(res.Clusters)
	}
	sp.Published, sp.PubSeqs = pub, seqs
	for l := range pub {
		for i := range pub[l] {
			deltas = append(deltas, sp.upsertDelta(l, i, false))
		}
	}
	return deltas
}

// upsertDelta snapshots published[l][i] as a record delta.
func (sp *StreamPublisher) upsertDelta(l, i int, del bool) StreamDelta {
	ref := sp.Published[l][i]
	return StreamDelta{Level: l, Del: del, Rec: route.RecordView{
		Seq: sp.PubSeqs[l][i],
		Entry: overlay.Entry{
			Key:     sp.Mappers[l].MapPoint(ref.Center),
			Radius:  sp.Mappers[l].EntryRadius(ref.Radius),
			Payload: ref,
		},
	}}
}

// SetStreamTuning installs the kernel tuning used by subsequent StreamInsert
// calls for peers that have not started streaming yet.
func (s *System) SetStreamTuning(t StreamTuning) { s.streamTuning = t }

// StreamInsert adds an item to peer p after publication, like PostInsert, but
// keeps the overlays fresh: the streaming kernel updates p's published
// summaries in place and the resulting record deltas are applied to every
// level's overlay (which must implement overlay.StreamUpdater). Returns the
// deltas announced and the overlay hops they consumed — the simulator oracle
// a live node's store_rec announcements are proven against.
func (s *System) StreamInsert(p, id int, item []float64) ([]StreamDelta, int) {
	if len(item) != s.cfg.Dim {
		panic(fmt.Sprintf("core: item dim %d, want %d", len(item), s.cfg.Dim))
	}
	s.requireBounds()
	ps := s.peers[p]
	if ps.published == nil {
		panic(fmt.Sprintf("core: peer %d has not published; StreamInsert needs a base clustering", p))
	}
	if ps.stream == nil {
		ps.stream = NewStreamState(s.streamTuning, s.cfg.Levels)
	}
	ps.store.Append(id, item)
	sp := &StreamPublisher{
		Peer:            p,
		Convention:      s.cfg.Convention,
		ClustersPerPeer: s.cfg.ClustersPerPeer,
		Mappers:         BuildKeyMappers(s.bounds),
		Published:       ps.published,
		PubSeqs:         ps.pubSeqs,
		State:           ps.stream,
	}
	deltas := sp.Insert(item, ps.store)
	ps.published, ps.pubSeqs = sp.Published, sp.PubSeqs
	hops := 0
	for _, d := range deltas {
		up, ok := s.overlays[d.Level].(overlay.StreamUpdater)
		if !ok {
			panic(fmt.Sprintf("core: level %d overlay does not support streaming publish", d.Level))
		}
		if d.Del {
			hops += up.DeleteSphere(p, d.Rec.Seq, d.Rec.Entry)
		} else {
			hops += up.UpsertSphere(p, d.Rec.Seq, d.Rec.Entry)
		}
	}
	return deltas, hops
}
