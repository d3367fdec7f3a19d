package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hyperm/internal/cluster"
	"hyperm/internal/overlay"
	"hyperm/internal/parallel"
	"hyperm/internal/store"
	"hyperm/internal/wavelet"
)

// ClusterRef is the payload Hyper-M publishes into the overlays: the sphere
// summary of one per-level cluster plus enough identity to credit its peer
// during scoring. Center and Radius are in subspace (unmapped) coordinates,
// so scoring never suffers key-space clamping distortion.
type ClusterRef struct {
	Peer   int       // owning peer id
	Level  int       // wavelet level index (0 = A)
	Index  int       // cluster index within the peer's level clustering
	Center []float64 // centroid in subspace coordinates
	Radius float64   // sphere radius in subspace coordinates
	Items  int       // number of items summarized at publication time
}

// peerState is everything a single device knows locally.
type peerState struct {
	id int
	// store is the device's flat item store: id column + coalesced vector
	// blocks (see internal/store).
	store *store.Store
	// published[l] is the level-l clustering actually announced to the
	// overlays; stale after post-creation inserts, exactly like the paper's
	// Fig 10c setting.
	published [][]ClusterRef
	// pubSeqs[l][i] is the overlay sequence number published[l][i] was
	// announced under — the record identity streaming publish upserts in
	// place. Captured only on overlays that expose sequence numbers
	// (can.Overlay); nil otherwise.
	pubSeqs [][]int
	// stream is the incremental-publish state, lazily built on the first
	// StreamInsert (see stream.go).
	stream *StreamState
	// dead marks a crashed/departed device: it answers no fetches and its
	// overlay storage has been wiped.
	dead bool
}

// System is a simulated Hyper-M deployment: all peers, the per-level
// overlays, and the shared key mapping.
type System struct {
	cfg      Config
	overlays []overlay.Network
	mappers  []keyMapper
	peers    []*peerState
	bounds   []Bounds
	engine   *Engine
	// streamTuning parameterizes the incremental publish kernel for peers
	// that begin streaming (see stream.go); zero value = defaults.
	streamTuning StreamTuning
}

// NewSystem builds the per-level overlays and empty peers. Data is added
// with AddPeerData and announced with PublishAll/PublishPeer.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	for l := 0; l < cfg.Levels; l++ {
		ov, err := cfg.Factory(l, wavelet.SubspaceDim(l), cfg.Peers)
		if err != nil {
			return nil, fmt.Errorf("core: building overlay for level %d: %w", l, err)
		}
		if ov.Dim() != wavelet.SubspaceDim(l) {
			return nil, fmt.Errorf("core: overlay for level %d has dim %d, want %d",
				l, ov.Dim(), wavelet.SubspaceDim(l))
		}
		if ov.Size() != cfg.Peers {
			return nil, fmt.Errorf("core: overlay for level %d has %d nodes, want %d",
				l, ov.Size(), cfg.Peers)
		}
		s.overlays = append(s.overlays, ov)
	}
	for p := 0; p < cfg.Peers; p++ {
		s.peers = append(s.peers, &peerState{id: p, store: store.New(cfg.Dim)})
	}
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Overlay exposes level l's overlay (for statistics collection).
func (s *System) Overlay(l int) overlay.Network { return s.overlays[l] }

// AddPeerData stores items (with their global ids) on peer p's device.
// It is a purely local operation — nothing is announced until PublishPeer.
func (s *System) AddPeerData(p int, ids []int, items [][]float64) {
	if len(ids) != len(items) {
		panic(fmt.Sprintf("core: %d ids for %d items", len(ids), len(items)))
	}
	ps := s.peers[p]
	for i, x := range items {
		if len(x) != s.cfg.Dim {
			panic(fmt.Sprintf("core: item dim %d, want %d", len(x), s.cfg.Dim))
		}
		ps.store.Append(ids[i], x)
	}
}

// PeerItemCount returns the number of items stored on peer p.
func (s *System) PeerItemCount(p int) int { return s.peers[p].store.Len() }

// TotalItems returns the number of items across every peer.
func (s *System) TotalItems() int {
	total := 0
	for _, ps := range s.peers {
		total += ps.store.Len()
	}
	return total
}

// DeriveBounds computes each level's empirical coefficient range across all
// peer data (with a small safety margin) and installs it as the shared key
// mapping. In a deployment these bounds follow from the shared feature
// domain (e.g. normalized color histograms); computing them from the
// simulated corpus is equivalent and avoids key-space clamping.
// Must be called after data is added and before querying or PublishPeer;
// PublishAll derives the same bounds itself when none are installed.
//
// The per-peer reductions run on the Config.Parallelism worker pool: each
// peer transforms only its own items, to the published levels' coefficients,
// and the min/max merge runs in peer order, so the result is identical for
// every worker count.
func (s *System) DeriveBounds() {
	parts, _ := parallel.Map(nil, s.cfg.Parallelism, len(s.peers), func(p int) (extrema, error) {
		x := newExtrema(s.cfg.Levels)
		x.add(wavelet.SubspaceMatrices(s.peers[p].store.Rows(), s.cfg.Levels, s.cfg.Convention))
		return x, nil
	})
	s.installExtrema(parts)
}

// extrema accumulates each level's coefficient range; a level with no
// coefficient yet holds {+Inf, -Inf}.
type extrema []Bounds

func newExtrema(levels int) extrema {
	x := make(extrema, levels)
	for l := range x {
		x[l] = Bounds{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	return x
}

// add widens level l of x by every coefficient of mats[l], the rows of
// wavelet.SubspaceMatrices. Each level sees its coefficients in item order,
// as it did when items were decomposed one at a time.
func (x extrema) add(mats [][][]float64) {
	for l, rows := range mats {
		for _, row := range rows {
			for _, c := range row {
				x.widen(l, c, c)
			}
		}
	}
}

// widen extends level l's range to cover [lo, hi]. Plain comparisons, not
// the min/max builtins: a NaN coefficient is skipped and a zero keeps the
// sign it was first seen with.
func (x extrema) widen(l int, lo, hi float64) {
	if lo < x[l].Lo {
		x[l].Lo = lo
	}
	if hi > x[l].Hi {
		x[l].Hi = hi
	}
}

// installExtrema merges per-peer extrema (nil for a peer without items) and
// installs the result as the bounds. Parts merge in peer order, so the bounds
// do not depend on which pipeline or worker count produced them.
func (s *System) installExtrema(parts []extrema) {
	merged := newExtrema(s.cfg.Levels)
	for _, x := range parts {
		for l, b := range x {
			merged.widen(l, b.Lo, b.Hi)
		}
	}
	s.bounds = make([]Bounds, s.cfg.Levels)
	for l, b := range merged {
		if b.Lo <= b.Hi { // at least one coefficient seen at this level
			s.bounds[l] = b
		}
	}
	s.installBounds()
}

// SetBounds installs explicit per-level coefficient bounds (length must be
// Levels). Use when the data domain is known a priori.
func (s *System) SetBounds(b []Bounds) {
	if len(b) != s.cfg.Levels {
		panic(fmt.Sprintf("core: %d bounds for %d levels", len(b), s.cfg.Levels))
	}
	s.bounds = append([]Bounds(nil), b...)
	s.installBounds()
}

// installBounds builds the key mapping and the query engine. One query runs
// its level searches and its store scans on up to Config.Parallelism
// goroutines; with 1 both are the serial loops.
func (s *System) installBounds() {
	s.mappers = buildMappers(s.bounds)
	workers := parallel.Workers(s.cfg.Parallelism)
	s.engine = &Engine{cfg: s.cfg, mappers: s.mappers, backend: systemBackend{s, workers}, levelFanout: workers}
}

// Bounds returns a copy of the installed per-level coefficient bounds
// (nil before DeriveBounds/SetBounds). Serving nodes snapshot these to
// rebuild the identical key mapping.
func (s *System) Bounds() []Bounds {
	if s.bounds == nil {
		return nil
	}
	return append([]Bounds(nil), s.bounds...)
}

// PeerData returns peer p's item ids and vectors. The outer slices are
// copies; the vectors themselves are arena views (they are treated as
// immutable throughout the repository).
func (s *System) PeerData(p int) (ids []int, items [][]float64) {
	ps := s.peers[p]
	return append([]int(nil), ps.store.IDs()...), ps.store.Rows()
}

// PeerStore returns an independent flat-store clone of peer p's items — what
// a serving node snapshots as its local store (full blocks shared, append
// tails split; see store.Clone).
func (s *System) PeerStore(p int) *store.Store {
	return s.peers[p].store.Clone()
}

// PublishStats reports the network cost of announcing one peer's summaries.
type PublishStats struct {
	// ClustersPublished counts cluster spheres inserted (across levels).
	ClustersPublished int
	// Hops is the total overlay routing + replication hops consumed.
	Hops int
	// HopsPerLevel breaks Hops down by wavelet level.
	HopsPerLevel []int
}

// preparedPeer is the output of one peer's local pipeline steps — the DWT
// coefficients of the published levels (i1) and the per-subspace k-means
// (i2). It is pure data computed without touching any shared structure,
// which is what makes the preparation phase safe to fan out across workers.
type preparedPeer struct {
	// levels[l] holds the level-l cluster spheres, nil for an empty peer.
	levels [][]cluster.Cluster
	// extrema is the peer's share of DeriveBounds, read off the same
	// coefficients (nil for an empty peer).
	extrema extrema
}

// clusterSeed draws the clustering seed for the next peer preparation from
// the system RNG. Seeds are always drawn serially, in peer order, on the
// caller's goroutine: the worker pool only ever sees the derived per-peer
// rand.Rand, never Config.Rng itself.
func (s *System) clusterSeed() int64 { return s.cfg.Rng.Int63() }

// preparePeer runs steps i1+i2 for one peer with a private RNG. Safe to call
// concurrently for distinct peers.
func (s *System) preparePeer(p int, seed int64) preparedPeer {
	ps := s.peers[p]
	if ps.store.Len() == 0 {
		return preparedPeer{}
	}
	rng := rand.New(rand.NewSource(seed))
	mats := wavelet.SubspaceMatrices(ps.store.Rows(), s.cfg.Levels, s.cfg.Convention)
	prep := preparedPeer{levels: make([][]cluster.Cluster, s.cfg.Levels), extrema: newExtrema(s.cfg.Levels)}
	prep.extrema.add(mats)
	for l, coeffs := range mats {
		res := cluster.KMeans(coeffs, cluster.Config{K: s.cfg.ClustersPerPeer, Rng: rng})
		prep.levels[l] = res.Clusters
	}
	return prep
}

// commitPeer runs step i3 for one peer: announce the prepared cluster
// spheres into the per-level overlays. The overlays are mutable
// single-threaded structures, so commits always run serially in peer order.
func (s *System) commitPeer(p int, prep preparedPeer) PublishStats {
	ps := s.peers[p]
	st := PublishStats{HopsPerLevel: make([]int, s.cfg.Levels)}
	ps.published = make([][]ClusterRef, s.cfg.Levels)
	ps.pubSeqs = make([][]int, s.cfg.Levels)
	ps.stream = nil // a fresh batch publish resets any incremental state
	if prep.levels == nil {
		return st
	}
	for l, clusters := range prep.levels {
		seqer, _ := s.overlays[l].(overlay.Sequencer)
		for idx, c := range clusters {
			ref := ClusterRef{
				Peer:   p,
				Level:  l,
				Index:  idx,
				Center: c.Centroid,
				Radius: c.Radius,
				Items:  c.Count,
			}
			ps.published[l] = append(ps.published[l], ref)
			if seqer != nil {
				ps.pubSeqs[l] = append(ps.pubSeqs[l], seqer.NextSeq())
			}
			hops := s.overlays[l].InsertSphere(p, overlay.Entry{
				Key:     s.mappers[l].mapPoint(c.Centroid),
				Radius:  slacken(s.mappers[l].mapRadius(c.Radius)),
				Payload: ref,
			})
			st.ClustersPublished++
			st.Hops += hops
			st.HopsPerLevel[l] += hops
		}
	}
	return st
}

func (s *System) requireBounds() {
	if s.mappers == nil {
		panic("core: bounds not installed; call DeriveBounds or SetBounds first")
	}
}

// PublishPeer runs the paper's insertion pipeline (Fig 2) for one peer:
// DWT-decompose its items (step i1), k-means each subspace independently
// (step i2), and insert each cluster sphere into that level's overlay
// (step i3). It returns the cost accounting.
//
// Publishing requires bounds (DeriveBounds or SetBounds) to be installed.
// Calling PublishPeer for every peer in order is exactly equivalent to one
// PublishAll, at any Parallelism setting.
func (s *System) PublishPeer(p int) PublishStats {
	s.requireBounds()
	return s.commitPeer(p, s.preparePeer(p, s.clusterSeed()))
}

// PublishAll publishes every peer and returns the summed statistics. Without
// installed bounds it first derives them, exactly as DeriveBounds would, from
// the coefficients it clusters — each item is transformed once.
//
// The per-peer preparation (decomposition + clustering, the dominant cost)
// fans out across the Config.Parallelism worker pool; per-peer clustering
// seeds are drawn serially beforehand and overlay insertion runs serially
// afterwards in peer order, so the published summaries, hop counts, and
// overlay states are byte-identical to a fully serial run.
func (s *System) PublishAll() PublishStats {
	seeds := make([]int64, len(s.peers))
	for p := range seeds {
		seeds[p] = s.clusterSeed()
	}
	preps, _ := parallel.Map(nil, s.cfg.Parallelism, len(s.peers), func(p int) (preparedPeer, error) {
		return s.preparePeer(p, seeds[p]), nil
	})
	if s.mappers == nil {
		parts := make([]extrema, len(preps))
		for p, prep := range preps {
			parts[p] = prep.extrema
		}
		s.installExtrema(parts)
	}
	total := PublishStats{HopsPerLevel: make([]int, s.cfg.Levels)}
	for p := range s.peers {
		st := s.commitPeer(p, preps[p])
		total.ClustersPublished += st.ClustersPublished
		total.Hops += st.Hops
		for l, h := range st.HopsPerLevel {
			total.HopsPerLevel[l] += h
		}
	}
	return total
}

// PostInsert adds an item to peer p after the overlay was built, without
// republishing — the Figure 10c scenario. The item joins the peer's local
// store and is absorbed into the nearest published cluster of each level
// locally (count bumps are local knowledge only); the overlay summaries go
// stale, which is precisely the recall degradation the experiment measures.
func (s *System) PostInsert(p int, id int, item []float64) {
	if len(item) != s.cfg.Dim {
		panic(fmt.Sprintf("core: item dim %d, want %d", len(item), s.cfg.Dim))
	}
	ps := s.peers[p]
	ps.store.Append(id, item)
	AbsorbInsert(ps.published, item, s.cfg.Convention)
}

// FailPeer models device p crashing or walking out of radio range after
// publication: it stops answering data fetches, and the index records its
// overlay node stored (owned entries and replicas, across every level) are
// lost. Other nodes' replicas of p's summaries survive — the Fig 6
// replication is what keeps p-adjacent regions searchable. It returns the
// number of index records lost.
//
// Failing a peer is irreversible in this simulation (short-lived MANETs do
// not wait for repairs).
func (s *System) FailPeer(p int) int {
	ps := s.peers[p]
	if ps.dead {
		return 0
	}
	ps.dead = true
	lost := 0
	for _, ov := range s.overlays {
		if failer, ok := ov.(overlay.StorageFailer); ok {
			lost += failer.ClearNode(p)
		}
	}
	return lost
}

// LeavePeer models device p departing gracefully: like FailPeer its items
// become unreachable (they leave with the device), but the index records its
// overlay nodes stored are handed over to neighbors first, so foreign
// summaries survive. Falls back to FailPeer semantics on overlays without a
// departure protocol. It returns the handover messages spent.
func (s *System) LeavePeer(p int) (msgs int, err error) {
	ps := s.peers[p]
	if ps.dead {
		return 0, fmt.Errorf("core: peer %d already left or failed", p)
	}
	for l, ov := range s.overlays {
		if leaver, ok := ov.(overlay.Leaver); ok {
			m, err := leaver.Leave(p)
			if err != nil {
				return msgs, fmt.Errorf("core: level %d: %w", l, err)
			}
			msgs += m
		} else if failer, ok := ov.(overlay.StorageFailer); ok {
			failer.ClearNode(p)
		}
	}
	ps.dead = true
	return msgs, nil
}

// JoinPeer admits one new, empty peer into a running system: every level's
// overlay splits the zone owning that level's join point and hands the new
// node its share of the index records. points carries one join point per
// level (in that level's key space). The peer starts with no items and no
// published summaries — it serves the index it inherited, exactly like a
// fresh device walking into the MANET. Returns the new peer's id.
//
// All overlays must support post-construction joins (overlay.Joiner).
func (s *System) JoinPeer(points [][]float64) (int, error) {
	if len(points) != s.cfg.Levels {
		return 0, fmt.Errorf("core: %d join points for %d levels", len(points), s.cfg.Levels)
	}
	id := len(s.peers)
	for l, ov := range s.overlays {
		joiner, ok := ov.(overlay.Joiner)
		if !ok {
			return 0, fmt.Errorf("core: level %d overlay does not support joins", l)
		}
		nid, err := joiner.JoinNode(points[l])
		if err != nil {
			return 0, fmt.Errorf("core: level %d: %w", l, err)
		}
		if nid != id {
			return 0, fmt.Errorf("core: level %d assigned node id %d, want peer id %d", l, nid, id)
		}
	}
	s.peers = append(s.peers, &peerState{id: id, store: store.New(s.cfg.Dim)})
	s.cfg.Peers++
	return id, nil
}

// CrashPeer models device p dying abruptly mid-operation: its items and
// stored index records are gone, and on every level a surviving neighbor
// takes over its zone and republishes what the surviving replicas can
// restore — the simulator twin of the live membership protocol's
// probe-detected takeover. Requires overlay.Crasher support; returns the
// total number of recovered index records across levels.
func (s *System) CrashPeer(p int) (recovered int, err error) {
	ps := s.peers[p]
	if ps.dead {
		return 0, fmt.Errorf("core: peer %d already left or failed", p)
	}
	for l, ov := range s.overlays {
		crasher, ok := ov.(overlay.Crasher)
		if !ok {
			return recovered, fmt.Errorf("core: level %d overlay does not support crashes", l)
		}
		n, err := crasher.Crash(p)
		if err != nil {
			return recovered, fmt.Errorf("core: level %d: %w", l, err)
		}
		recovered += n
	}
	ps.dead = true
	return recovered, nil
}

// PeerAlive reports whether peer p has neither failed nor left.
func (s *System) PeerAlive(p int) bool { return !s.peers[p].dead }

// AlivePeers returns the number of peers that have not failed.
func (s *System) AlivePeers() int {
	alive := 0
	for _, ps := range s.peers {
		if !ps.dead {
			alive++
		}
	}
	return alive
}

// PublishedClusters returns a copy of the cluster summaries peer p announced
// at level l (nil if the peer has not published).
func (s *System) PublishedClusters(p, l int) []ClusterRef {
	ps := s.peers[p]
	if ps.published == nil || l >= len(ps.published) {
		return nil
	}
	return append([]ClusterRef(nil), ps.published[l]...)
}

// PublishedAll returns a copy of every cluster summary peer p announced,
// indexed by level, or nil if the peer has not published. The copy is
// AbsorbInsert-independent from the system's own bookkeeping, which is what
// a serving node snapshots to track post-creation inserts on its own.
func (s *System) PublishedAll(p int) [][]ClusterRef {
	ps := s.peers[p]
	if ps.published == nil {
		return nil
	}
	out := make([][]ClusterRef, len(ps.published))
	for l, refs := range ps.published {
		out[l] = append([]ClusterRef(nil), refs...)
	}
	return out
}

// PublishedSeqs returns a copy of the overlay sequence numbers peer p's
// published records were announced under, indexed like PublishedAll (nil if
// the peer has not published or the overlay exposes no sequence numbers).
// Serving nodes snapshot these: they are the record identities streaming
// publish upserts in place.
func (s *System) PublishedSeqs(p int) [][]int {
	ps := s.peers[p]
	if ps.pubSeqs == nil {
		return nil
	}
	out := make([][]int, len(ps.pubSeqs))
	for l, seqs := range ps.pubSeqs {
		out[l] = append([]int(nil), seqs...)
	}
	return out
}

// KeyRadius converts a level-l subspace radius into overlay key-space units
// using the installed bounds (for diagnostics and experiment reporting).
func (s *System) KeyRadius(l int, r float64) float64 {
	if s.mappers == nil {
		panic("core: bounds not installed")
	}
	return s.mappers[l].mapRadius(r)
}

// PeerScore pairs a peer with its aggregated relevance score.
type PeerScore struct {
	Peer  int
	Score float64
}

// sortScores aggregates per-level score vectors (each of length Levels;
// levels where the peer surfaced no cluster hold zero) and orders peers by
// descending score, ties by ascending id so runs are deterministic. Peers
// whose aggregate is zero are dropped — with AggMin this is the paper's
// pruning behaviour.
func sortScores(scores map[int][]float64, agg Aggregation) []PeerScore {
	out := make([]PeerScore, 0, len(scores))
	for p, perLevel := range scores {
		sc := aggregate(perLevel, agg)
		if sc <= 0 {
			continue
		}
		out = append(out, PeerScore{Peer: p, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// aggregate combines one peer's per-level scores into its global score.
func aggregate(perLevel []float64, agg Aggregation) float64 {
	switch agg {
	case AggMin:
		m := perLevel[0]
		for _, v := range perLevel[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggSum, AggMean:
		var sum float64
		for _, v := range perLevel {
			sum += v
		}
		if agg == AggMean {
			sum /= float64(len(perLevel))
		}
		return sum
	default:
		panic("core: unknown aggregation policy")
	}
}
