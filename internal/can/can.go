// Package can implements the Content-Addressable Network overlay
// (Ratnasamy et al., SIGCOMM 2001) that the paper uses as its evaluation
// substrate (§5). The key space is the unit d-torus [0,1)^d partitioned into
// axis-aligned zones, one per node:
//
//   - joins route a random point to its current owner, whose zone is split
//     in half (longest side first) between owner and joiner;
//   - routing is greedy: each node forwards to the neighbor whose zone is
//     closest to the target under the torus metric;
//   - inserts of non-zero-sized objects (cluster spheres) are stored at the
//     centroid's owner and replicated to every zone the sphere overlaps
//     (paper Fig 6) via neighbor flooding, with the replication messages
//     charged to insertion cost — exactly the overhead Figure 8a measures;
//   - sphere searches route to the query center's owner and flood over the
//     zones the query sphere touches, collecting intersecting entries.
//
// All routing and flood decisions are made by the shared machines of
// internal/route; this package is the simulator-side driver, contributing
// zone maintenance (join/split/leave), message and drop accounting, and the
// global-scan fallbacks a simulated network can afford.
package can

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hyperm/internal/overlay"
	"hyperm/internal/route"
)

// Zone is an axis-aligned half-open box [Lo, Hi) inside the unit torus; see
// route.Zone (the routing core owns the zone geometry).
type Zone = route.Zone

// TorusDist returns the torus (wrap-around) Euclidean distance between two
// key-space points.
func TorusDist(a, b []float64) float64 { return route.TorusDist(a, b) }

// node is one overlay participant: a zone, its neighbor set, and the entries
// it stores (both owned — centroid in zone — and replicated).
type node struct {
	id        int
	zones     []Zone // usually one; temporarily more after a takeover (Leave)
	alive     bool
	neighbors []int
	// views is the neighbor table as the routing core reads it: neighbors'
	// ids with their live zone slices. Every mutator that changes zones or
	// neighbor lists rebuilds it (refreshViews), so liveView stays a pure
	// read that concurrent searches can share.
	views    []NeighborView
	owned    []RecordView
	replicas []RecordView
}

// containsPoint reports whether any of the node's zones contains p.
func (n *node) containsPoint(p []float64) bool { return route.ZonesContain(n.zones, p) }

// intersectsSphere reports whether any zone touches the sphere.
func (n *node) intersectsSphere(key []float64, radius float64) bool {
	return route.ZonesIntersect(n.zones, key, radius)
}

// volume is the node's total key-space volume.
func (n *node) volume() float64 {
	var v float64
	for _, z := range n.zones {
		v += z.Volume()
	}
	return v
}

// Stats accumulates overlay-wide message accounting.
type Stats struct {
	// JoinHops is the routing cost of building the overlay (node joins).
	JoinHops int
	// InsertRouteHops counts greedy-routing hops of insert operations.
	InsertRouteHops int
	// InsertReplicationHops counts the extra messages spent replicating
	// sphere entries into overlapping zones (Fig 6 / Fig 8a overhead).
	InsertReplicationHops int
	// SearchHops counts routing + flooding hops of search operations.
	SearchHops int
	// RouteFallbacks counts greedy dead-ends resolved by the safety escape
	// hatch (should stay zero; a nonzero value flags a topology bug).
	RouteFallbacks int
}

// Overlay is a simulated CAN network. It implements overlay.Network.
type Overlay struct {
	dim      int
	nodes    []*node
	nextSeq  int
	observer overlay.Observer
	stats    Stats
	dropRate float64
	failRng  *rand.Rand
}

var _ overlay.Network = (*Overlay)(nil)

// Config parameterizes construction.
type Config struct {
	// Nodes is the number of peers to join.
	Nodes int
	// Dim is the key-space dimensionality.
	Dim int
	// Rng drives join-point selection. Required.
	Rng *rand.Rand
	// Observer, when non-nil, is invoked once per overlay message.
	Observer overlay.Observer
	// DropRate is the probability that a single overlay message is lost in
	// the (lossy, mobile) radio medium. Routing messages are retransmitted
	// (costing extra hops); replication and search-flood messages are
	// fire-and-forget and silently lost, degrading replica coverage and
	// recall — the failure-injection knob of the robustness experiments.
	DropRate float64
	// FailRng drives message-loss decisions; required when DropRate > 0 so
	// failures are reproducible independent of topology randomness.
	FailRng *rand.Rand
}

// Build constructs a CAN of cfg.Nodes nodes by sequential joins at random
// points, as in the original CAN bootstrap. Join routing costs accumulate in
// Stats().JoinHops.
func Build(cfg Config) (*Overlay, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("can: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("can: dimension must be >= 1, got %d", cfg.Dim)
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("can: rng must be non-nil")
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		if cfg.DropRate != 0 {
			return nil, fmt.Errorf("can: drop rate %v outside [0,1)", cfg.DropRate)
		}
	}
	if cfg.DropRate > 0 && cfg.FailRng == nil {
		return nil, fmt.Errorf("can: FailRng required when DropRate > 0")
	}
	o := &Overlay{dim: cfg.Dim, observer: cfg.Observer, dropRate: cfg.DropRate, failRng: cfg.FailRng}
	full := Zone{Lo: make([]float64, cfg.Dim), Hi: make([]float64, cfg.Dim)}
	for i := range full.Hi {
		full.Hi[i] = 1
	}
	o.nodes = append(o.nodes, &node{id: 0, alive: true, zones: []Zone{full}})
	for i := 1; i < cfg.Nodes; i++ {
		if err := o.join(cfg.Rng); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// join adds one node: pick a random point, route to its owner from a random
// alive bootstrap node, split the owner's zone.
func (o *Overlay) join(rng *rand.Rand) error {
	p := make([]float64, o.dim)
	for i := range p {
		p[i] = rng.Float64()
	}
	var start *node
	for {
		start = o.nodes[rng.Intn(len(o.nodes))]
		if start.alive {
			break
		}
	}
	owner, hops := o.route(start, p)
	o.stats.JoinHops += hops
	_, err := o.split(owner, p)
	return err
}

// split admits a new node by halving owner's zone along its longest side; the
// half containing the join point goes to the joiner. Stored entries are
// redistributed. A zone too small to halve (route.ErrZoneTooSmall) admits
// nobody and changes nothing.
func (o *Overlay) split(owner *node, joinPoint []float64) (*node, error) {
	zi := 0
	for i, z := range owner.zones {
		if z.Contains(joinPoint) {
			zi = i
			break
		}
	}
	// The split geometry (longest side, lowest index on ties — keeps zones
	// near-cubical) and the record redistribution are the shared maintenance
	// helpers' — the live membership protocol splits through the exact same
	// code, which is what keeps it byte-identical to this simulator.
	kept, taken, err := route.SplitZone(owner.zones[zi], joinPoint)
	if err != nil {
		return nil, fmt.Errorf("can: node %d cannot split %v for a join at %v: %w", owner.id, owner.zones[zi], joinPoint, err)
	}
	joiner := &node{id: len(o.nodes), alive: true, zones: []Zone{taken}}
	o.nodes = append(o.nodes, joiner)
	owner.zones[zi] = kept
	owner.owned, owner.replicas, joiner.owned, joiner.replicas =
		route.SplitRecords(owner.owned, owner.replicas, owner.zones, joiner.zones)

	// Rewire neighbor sets: the former neighbor set of the pre-split zone,
	// plus the owner/joiner pair itself, covers every affected node.
	affected := map[int]bool{owner.id: true, joiner.id: true}
	for _, nb := range oldNeighborsPlus(owner, joiner) {
		affected[nb] = true
	}
	for id := range affected {
		o.recomputeNeighbors(o.nodes[id])
	}
	o.refreshViews()
	return joiner, nil
}

func oldNeighborsPlus(owner, joiner *node) []int {
	out := append([]int{}, owner.neighbors...)
	out = append(out, joiner.neighbors...)
	return out
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// recomputeNeighbors rebuilds n's neighbor list by scanning all nodes, and
// symmetrically fixes the reverse edges. O(N) per call — acceptable for the
// simulated network sizes (hundreds of nodes).
func (o *Overlay) recomputeNeighbors(n *node) {
	n.neighbors = n.neighbors[:0]
	for _, m := range o.nodes {
		if m.id == n.id {
			continue
		}
		if n.alive && m.alive && nodesAdjacent(n, m) {
			n.neighbors = append(n.neighbors, m.id)
			if !contains(m.neighbors, n.id) {
				m.neighbors = append(m.neighbors, n.id)
			}
		} else if contains(m.neighbors, n.id) {
			m.neighbors = removeID(m.neighbors, n.id)
		}
	}
}

// nodesAdjacent reports whether any zone of a is CAN-adjacent to any zone
// of b.
func nodesAdjacent(a, b *node) bool { return route.ZoneSetsAdjacent(a.zones, b.zones) }

func contains(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func removeID(ids []int, id int) []int {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// zonesAdjacent reports CAN neighborship; the geometry lives in the shared
// routing core (route.ZonesAdjacent).
func zonesAdjacent(a, b Zone) bool { return route.ZonesAdjacent(a, b) }

// hopLimit is the routing-loop budget: generously above any greedy path
// length on a consistent topology.
func (o *Overlay) hopLimit() int { return 8*len(o.nodes) + 16 }

// liveView returns node n's view for the routing core, sharing the live
// zone, neighbor-view and record slices (the machines treat views as
// read-only, so no copying is needed on the simulator's synchronous path).
// It writes nothing: concurrent searches may call it.
func (o *Overlay) liveView(n *node) route.NodeView {
	return route.NodeView{ID: n.id, Zones: n.zones, Neighbors: n.views, Owned: n.owned, Replicas: n.replicas}
}

// refreshViews rebuilds every node's kept neighbor views from the current
// neighbor lists and zones. Each mutator that changes either calls it once
// at its end; churn is rare and an overlay has at most a few hundred nodes,
// so rebuilding them all is cheaper than tracking which went stale.
func (o *Overlay) refreshViews() {
	for _, n := range o.nodes {
		n.views = n.views[:0]
		for _, id := range n.neighbors {
			n.views = append(n.views, route.NeighborView{ID: id, Zones: o.nodes[id].zones})
		}
	}
}

// route greedily forwards from start toward the owner of target, returning
// the owner and the number of hops taken. The route.Router makes every
// forwarding decision; this driver charges retransmitting radio links (each
// attempt costs a hop) and resolves stalls with the simulator's global-scan
// escape hatch, so termination is guaranteed even if greedy progress stalls.
func (o *Overlay) route(start *node, target []float64) (*node, int) {
	r := route.NewRouter(o.liveView(start), target, o.hopLimit())
	for {
		step, err := r.Next()
		if err != nil {
			// Should be unreachable; keep the simulation alive and flag it.
			o.stats.RouteFallbacks++
			owner := o.ownerScan(target)
			o.message(step.From, owner.id)
			r.ResolveOwner(o.liveView(owner), 1)
			continue
		}
		if step.Kind == route.StepDone {
			return o.nodes[step.From], r.Hops()
		}
		r.Feed(o.liveView(o.nodes[step.To]), o.reliableMessage(step.From, step.To))
	}
}

func (o *Overlay) ownerScan(target []float64) *node {
	for _, n := range o.nodes {
		if n.alive && n.containsPoint(target) {
			return n
		}
	}
	panic(fmt.Sprintf("can: no zone contains %v — zones do not tile the space", target))
}

func (o *Overlay) message(from, to int) {
	if o.observer != nil {
		o.observer(from, to)
	}
}

// dropped decides whether a fire-and-forget message is lost. Each loss is a
// real transmission: it is observed and charged before the content
// disappears.
func (o *Overlay) dropped() bool {
	return o.dropRate > 0 && o.failRng.Float64() < o.dropRate
}

// reliableMessage models a routing hop with link-layer retransmission: the
// message is repeated until it gets through, and every attempt costs one
// transmission. It returns the number of attempts (>= 1).
func (o *Overlay) reliableMessage(from, to int) int {
	attempts := 1
	for o.dropped() {
		o.message(from, to)
		attempts++
	}
	o.message(from, to)
	return attempts
}

// Dim returns the key-space dimensionality.
func (o *Overlay) Dim() int { return o.dim }

// Size returns the number of nodes.
func (o *Overlay) Size() int { return len(o.nodes) }

// Stats returns a copy of the accumulated message statistics.
func (o *Overlay) Stats() Stats { return o.stats }

// ResetStats zeroes the message statistics (topology is untouched).
func (o *Overlay) ResetStats() { o.stats = Stats{} }

// OwnerOf returns the id of the node whose zone contains key, without
// charging any messages.
func (o *Overlay) OwnerOf(key []float64) int {
	o.checkKey(key)
	return o.ownerScan(key).id
}

func (o *Overlay) checkKey(key []float64) {
	if len(key) != o.dim {
		panic(fmt.Sprintf("can: key dimension %d, overlay dimension %d", len(key), o.dim))
	}
	for _, v := range key {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			panic(fmt.Sprintf("can: key %v outside the unit torus", key))
		}
	}
}

// InsertSphere publishes e from the given node: greedy-route to the
// centroid's owner, store, then replicate into every zone the sphere
// overlaps (one hop per replica, flooding through overlapping zones).
// The returned hop count is routing + replication.
func (o *Overlay) InsertSphere(from int, e overlay.Entry) int {
	o.checkKey(e.Key)
	if e.Radius < 0 {
		panic("can: negative entry radius")
	}
	if !o.nodes[from].alive {
		panic(fmt.Sprintf("can: node %d has left the overlay", from))
	}
	owner, hops := o.route(o.nodes[from], e.Key)
	o.stats.InsertRouteHops += hops
	rec := RecordView{Seq: o.nextSeq, Entry: e}
	o.nextSeq++
	owner.owned = append(owner.owned, rec)
	if e.Radius > 0 {
		hops += o.replicate(owner, rec)
	}
	return hops
}

// replicate floods rec from its owner into every other zone the sphere
// overlaps, returning the number of replication messages. The route.Flood
// machine decides the visit order; this driver stores the replica on each
// reached node and injects radio loss (a dropped message is charged but the
// replica never lands, degrading coverage).
func (o *Overlay) replicate(owner *node, rec RecordView) int {
	f := route.NewFlood(o.liveView(owner), rec.Entry.Key, rec.Entry.Radius)
	msgs := 0
	for {
		step := f.Next()
		if step.Kind == route.StepDone {
			break
		}
		o.message(step.From, step.To)
		msgs++
		if o.dropped() {
			f.Skip() // replica lost in the air; coverage degrades
			continue
		}
		nb := o.nodes[step.To]
		nb.replicas = append(nb.replicas, rec)
		f.Feed(o.liveView(nb))
	}
	o.stats.InsertReplicationHops += msgs
	return msgs
}

// NextSeq previews the sequence number the next InsertSphere will assign —
// the record identity a publisher remembers so it can upsert the record in
// place later (overlay.Sequencer).
func (o *Overlay) NextSeq() int { return o.nextSeq }

var _ overlay.Sequencer = (*Overlay)(nil)
var _ overlay.StreamUpdater = (*Overlay)(nil)

// UpsertSphere applies one streamed record delta (overlay.StreamUpdater):
// greedy-route to the centroid's owner, upsert there, then flood the sphere
// upserting on every reached node — the same visit pattern as InsertSphere,
// with route.UpsertRecord (replace in place, append where absent) instead of
// a plain append. Growing a record's radius therefore lands replicas in the
// newly covered zones while existing holders update in place.
func (o *Overlay) UpsertSphere(from, seq int, e overlay.Entry) int {
	return o.streamOp(from, route.RecordView{Seq: seq, Entry: e}, false)
}

// DeleteSphere removes the record with seq everywhere its sphere reaches
// (overlay.StreamUpdater). The entry carries the record's *current* key and
// radius, which bound where replicas can live.
func (o *Overlay) DeleteSphere(from, seq int, e overlay.Entry) int {
	return o.streamOp(from, route.RecordView{Seq: seq, Entry: e}, true)
}

// streamOp routes to the sphere owner, applies the delta there, and floods
// the sphere applying it on every reached node. Dropped flood messages are
// charged but not applied, exactly like replicate.
func (o *Overlay) streamOp(from int, rec RecordView, del bool) int {
	o.checkKey(rec.Entry.Key)
	if rec.Entry.Radius < 0 {
		panic("can: negative entry radius")
	}
	if !o.nodes[from].alive {
		panic(fmt.Sprintf("can: node %d has left the overlay", from))
	}
	owner, hops := o.route(o.nodes[from], rec.Entry.Key)
	o.stats.InsertRouteHops += hops
	o.applyStream(owner, rec, del, true)
	if rec.Entry.Radius <= 0 {
		return hops
	}
	f := route.NewFlood(o.liveView(owner), rec.Entry.Key, rec.Entry.Radius)
	msgs := 0
	for {
		step := f.Next()
		if step.Kind == route.StepDone {
			break
		}
		o.message(step.From, step.To)
		msgs++
		if o.dropped() {
			f.Skip() // delta lost in the air; this holder goes stale
			continue
		}
		nb := o.nodes[step.To]
		o.applyStream(nb, rec, del, false)
		f.Feed(o.liveView(nb))
	}
	o.stats.InsertReplicationHops += msgs
	return hops + msgs
}

// applyStream mutates one node's stores through the shared delta rules.
func (o *Overlay) applyStream(n *node, rec RecordView, del, asOwner bool) {
	if del {
		n.owned, n.replicas, _ = route.DeleteRecord(n.owned, n.replicas, rec.Seq)
		return
	}
	n.owned, n.replicas = route.UpsertRecord(n.owned, n.replicas, rec, asOwner)
}

// SearchSphere routes to the owner of key and floods the zones intersecting
// the query sphere, returning every stored entry whose own sphere intersects
// the query (deduplicated across replicas) plus the hops spent. Every
// routing, flood, and collection decision is the route.Search machine's;
// this driver contributes message/drop accounting and the global-scan stall
// fallback — the serving runtime drives the identical machine over RPCs.
func (o *Overlay) SearchSphere(from int, key []float64, radius float64) ([]overlay.Entry, int) {
	o.checkKey(key)
	if radius < 0 {
		panic("can: negative query radius")
	}
	if !o.nodes[from].alive {
		panic(fmt.Sprintf("can: node %d has left the overlay", from))
	}
	s := route.NewSearch(o.liveView(o.nodes[from]), key, radius, o.hopLimit())
	for {
		step, err := s.Next()
		if err != nil {
			// Should be unreachable; keep the simulation alive and flag it.
			o.stats.RouteFallbacks++
			owner := o.ownerScan(key)
			o.message(step.From, owner.id)
			s.ResolveOwner(o.liveView(owner), 1)
			continue
		}
		switch step.Kind {
		case route.StepDone:
			hops := s.Hops()
			o.stats.SearchHops += hops
			return s.Results(), hops
		case route.StepRouteHop:
			s.Feed(o.liveView(o.nodes[step.To]), o.reliableMessage(step.From, step.To))
		case route.StepFloodVisit:
			o.message(step.From, step.To)
			if o.dropped() {
				s.Skip(1) // flood message lost; this zone goes unsearched
			} else {
				s.Feed(o.liveView(o.nodes[step.To]), 1)
			}
		}
	}
}

// NodeLoad returns how many entries node id stores: owned (centroid in the
// node's zone) and replicated (sphere overlap only). Feeds the Figure 9
// load-distribution analysis.
func (o *Overlay) NodeLoad(id int) (owned, replicas int) {
	n := o.nodes[id]
	return len(n.owned), len(n.replicas)
}

// ClearNode wipes node id's stored records (owned and replicas), modeling a
// device crash. The zone remains routable. Implements
// overlay.StorageFailer.
func (o *Overlay) ClearNode(id int) int {
	n := o.nodes[id]
	lost := len(n.owned) + len(n.replicas)
	n.owned, n.replicas = nil, nil
	return lost
}

// Leave removes node id gracefully, following the CAN departure protocol:
// each of its zones is merged with a neighbor zone when the union forms a
// valid box (the sibling-merge case); otherwise the alive neighbor managing
// the least key-space volume takes the zone over as an extra zone. Stored
// records move with their zones (one message per transferred record).
//
// It returns the number of transfer messages and an error if the node has
// already left or is the last one standing.
func (o *Overlay) Leave(id int) (int, error) {
	leaving := o.nodes[id]
	if !leaving.alive {
		return 0, fmt.Errorf("can: node %d has already left", id)
	}
	alive := 0
	for _, n := range o.nodes {
		if n.alive {
			alive++
		}
	}
	if alive <= 1 {
		return 0, fmt.Errorf("can: node %d is the last member and cannot leave", id)
	}

	// Hand each zone over, one at a time: prefer the sibling merge (an
	// alive neighbor holding a zone whose union with this one is a box);
	// otherwise the smallest-volume alive neighbor takes it as an extra
	// zone (CAN's temporary multi-zone takeover state). The election is the
	// shared route.ElectTakers — the same procedure every live node runs
	// when it detects a departure, so simulator and cluster agree.
	tks, ok := route.ElectTakers(leaving.zones, o.takerCandidates(leaving))
	if !ok {
		return 0, fmt.Errorf("can: node %d has no alive neighbor to hand zones to", id)
	}
	affected := map[int]bool{id: true}
	takers := map[int]*node{}
	for i, z := range leaving.zones {
		taker := o.nodes[tks[i].Taker]
		o.applyTakeover(taker, z, tks[i])
		affected[taker.id] = true
		takers[taker.id] = taker
	}

	// Move records: owned go to the node now owning their key; replicas go
	// to takers whose zones overlap. Each transferred record is one message.
	msgs := 0
	oldOwned, oldReplicas := leaving.owned, leaving.replicas
	leaving.owned, leaving.replicas, leaving.zones = nil, nil, nil
	leaving.alive = false
	for _, rec := range oldOwned {
		taker := o.ownerScan(rec.Entry.Key)
		taker.owned = append(taker.owned, rec)
		o.message(id, taker.id)
		msgs++
	}
	for _, rec := range oldReplicas {
		for _, taker := range takers {
			if taker.intersectsSphere(rec.Entry.Key, rec.Entry.Radius) && !taker.holds(rec.Seq) {
				taker.replicas = append(taker.replicas, rec)
				o.message(id, taker.id)
				msgs++
			}
		}
	}

	// Rewire: the leaver's former neighborhood plus the takers.
	for _, nbID := range leaving.neighbors {
		affected[nbID] = true
	}
	for aid := range affected {
		o.recomputeNeighbors(o.nodes[aid])
	}
	o.refreshViews()
	return msgs, nil
}

// holds reports whether the node already stores record seq.
func (n *node) holds(seq int) bool {
	for _, r := range n.owned {
		if r.Seq == seq {
			return true
		}
	}
	for _, r := range n.replicas {
		if r.Seq == seq {
			return true
		}
	}
	return false
}

// unionBox returns the union of two zones when it forms a valid box; the
// geometry lives in the shared routing core (route.UnionBox).
func unionBox(a, b Zone) (Zone, bool) { return route.UnionBox(a, b) }

// takerCandidates lists n's alive neighbors, in neighbor-list (ascending
// id) order, as takeover candidates for route.ElectTakers.
func (o *Overlay) takerCandidates(n *node) []route.Candidate {
	cands := make([]route.Candidate, 0, len(n.neighbors))
	for _, nbID := range n.neighbors {
		if nb := o.nodes[nbID]; nb.alive {
			cands = append(cands, route.Candidate{ID: nbID, Zones: nb.zones})
		}
	}
	return cands
}

// applyTakeover executes one elected zone assignment on the live taker.
func (o *Overlay) applyTakeover(taker *node, z Zone, tk route.Takeover) {
	if tk.Merge >= 0 {
		u, ok := route.UnionBox(z, taker.zones[tk.Merge])
		if !ok {
			panic(fmt.Sprintf("can: elected merge of %v into %v is not a box", z, taker.zones[tk.Merge]))
		}
		taker.zones[tk.Merge] = u
	} else {
		taker.zones = append(taker.zones, z)
	}
}

// JoinNode admits one node at a caller-chosen join point: the point's
// current owner splits its zone and hands records over, exactly as Build's
// random joins do. Returns the new node's id. This is the simulator twin of
// the live membership join (the point is what a live joiner drew), and
// implements overlay.Joiner.
func (o *Overlay) JoinNode(point []float64) (int, error) {
	if len(point) != o.dim {
		return 0, fmt.Errorf("can: join point dimension %d, overlay dimension %d", len(point), o.dim)
	}
	for _, v := range point {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return 0, fmt.Errorf("can: join point %v outside the unit torus", point)
		}
	}
	n, err := o.split(o.ownerScan(point), point)
	if err != nil {
		return 0, err
	}
	return n.id, nil
}

// Crash removes node id abruptly: no handover, its stored records die with
// the device. Each of its zones goes to the neighbor the shared takeover
// election picks (the same decision every live detector reaches), and each
// taker then recovers the records its new zone needs from the replicas
// surviving elsewhere — seq-sorted, owned when the centroid now lies in the
// taker's zones, replica otherwise. This is the simulator twin of the live
// protocol's probe-detected takeover plus republish; it implements
// overlay.Crasher and returns the number of recovered records.
func (o *Overlay) Crash(id int) (int, error) {
	crashed := o.nodes[id]
	if !crashed.alive {
		return 0, fmt.Errorf("can: node %d is not alive", id)
	}
	alive := 0
	for _, n := range o.nodes {
		if n.alive {
			alive++
		}
	}
	if alive <= 1 {
		return 0, fmt.Errorf("can: node %d is the last member and cannot crash away", id)
	}
	tks, ok := route.ElectTakers(crashed.zones, o.takerCandidates(crashed))
	if !ok {
		return 0, fmt.Errorf("can: node %d has no alive neighbor to take its zones", id)
	}

	crashed.owned, crashed.replicas = nil, nil
	type claim struct {
		zone  Zone
		taker *node
	}
	claims := make([]claim, 0, len(crashed.zones))
	affected := map[int]bool{id: true}
	for i, z := range crashed.zones {
		taker := o.nodes[tks[i].Taker]
		o.applyTakeover(taker, z, tks[i])
		claims = append(claims, claim{zone: z, taker: taker})
		affected[taker.id] = true
	}
	crashed.zones = nil
	crashed.alive = false
	for _, nbID := range crashed.neighbors {
		affected[nbID] = true
	}
	for aid := range affected {
		o.recomputeNeighbors(o.nodes[aid])
	}
	o.refreshViews()

	// Republish: each taker pulls the records its new zone needs from the
	// replicas that survived in overlapping zones. Records held only by the
	// crashed node are gone — consistently so in the live cluster, whose
	// recovery search can only reach the same survivors.
	recovered := 0
	for _, c := range claims {
		center, radius := c.zone.Circumsphere()
		found := o.scanRecords(center, radius)
		var n int
		c.taker.owned, c.taker.replicas, n =
			route.ApplyRecovery(c.taker.zones, c.zone, c.taker.owned, c.taker.replicas, found)
		recovered += n
	}
	return recovered, nil
}

// scanRecords collects every stored record (alive nodes in ascending id
// order, owned before replicas) whose sphere intersects the query sphere,
// deduplicated and then sorted by seq — the global-scan equivalent of what
// a live node's recovery sphere search collects.
func (o *Overlay) scanRecords(key []float64, radius float64) []RecordView {
	h := route.NewHarvest(key, radius)
	for _, n := range o.nodes {
		if n.alive {
			h.Add(n.owned)
			h.Add(n.replicas)
		}
	}
	out := h.Records
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// OwnedEntries returns copies of the entries whose centroid lies in node
// id's zone (replicas excluded). Feeds load-distribution analysis.
func (o *Overlay) OwnedEntries(id int) []overlay.Entry {
	n := o.nodes[id]
	out := make([]overlay.Entry, len(n.owned))
	for i, rec := range n.owned {
		out[i] = rec.Entry
	}
	return out
}

// ZoneOf returns a copy of node id's first zone (nodes own exactly one zone
// until a takeover; see Zones for the general form).
func (o *Overlay) ZoneOf(id int) Zone {
	z := o.nodes[id].zones[0]
	return Zone{Lo: cloneVec(z.Lo), Hi: cloneVec(z.Hi)}
}

// Zones returns copies of every zone node id currently manages.
func (o *Overlay) Zones(id int) []Zone {
	out := make([]Zone, len(o.nodes[id].zones))
	for i, z := range o.nodes[id].zones {
		out[i] = Zone{Lo: cloneVec(z.Lo), Hi: cloneVec(z.Hi)}
	}
	return out
}

// Alive reports whether node id is still part of the overlay.
func (o *Overlay) Alive(id int) bool { return o.nodes[id].alive }

// Neighbors returns a copy of node id's neighbor list.
func (o *Overlay) Neighbors(id int) []int {
	return append([]int{}, o.nodes[id].neighbors...)
}
