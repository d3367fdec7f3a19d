// Package route is the routing core of the CAN overlay: the greedy-route and
// sphere-flood decision logic of Hyper-M's §4 lookup path, extracted into
// pure, transport-agnostic state machines. The machines consume abstract node
// views — a node's zones, its neighbor table, and its stored records — and
// emit explicit decisions (route hop, flood visit, done); *how* a view is
// obtained (an in-memory pointer chase in the simulator, a can_search RPC in
// the serving runtime) and *what* a contact costs (retransmission attempts,
// one RPC) is entirely the driver's business.
//
// Three machines are provided, each advanced one decision at a time:
//
//   - Router greedily routes to the owner of a key: each step names the
//     neighbor whose zones are closest to the target under the torus metric
//     (+1e6 penalty for already-visited nodes, first strict minimum winning
//     ties — neighbor-list order is significant). Two stall outcomes are
//     typed sentinels: ErrLoopLimit (the driver-accounted hop total passed
//     the limit) and ErrNoNeighbor (no neighbor to forward to). Both are
//     unreachable on a healthy topology; a driver with global knowledge (the
//     simulator) resolves them via ResolveOwner, one without (a serving
//     node) surfaces them as request errors.
//   - Flood expands breadth-first from a root over every node whose zones
//     intersect a sphere: visits are emitted in frontier order, each
//     neighbor is claimed (visited) before its zones are tested, and a
//     visit may be Feed (expand) or Skip (message lost — the region goes
//     unexplored), which is how the simulator injects radio loss.
//   - Search composes the two into the full sphere lookup: route to the
//     owner of the query center, then flood the zones the query sphere
//     touches, collecting every record whose own sphere intersects the
//     query, deduplicated by overlay sequence number in arrival order.
//
// Because both the simulator (internal/can) and the serving runtime
// (internal/node) drive these same machines, their routing and flood
// decisions are byte-identical by construction — the property the serving
// determinism oracle used to enforce against a hand-maintained replica.
package route

import (
	"errors"
	"math"

	"hyperm/internal/overlay"
)

// ErrLoopLimit reports that greedy routing consumed its hop budget without
// reaching the owner — a routing loop, impossible on a consistent topology.
var ErrLoopLimit = errors.New("route: routing hop limit exceeded")

// ErrNoNeighbor reports that the current node has no neighbor to forward to —
// a dead end, impossible on a consistent topology with more than one node.
var ErrNoNeighbor = errors.New("route: no routable neighbor")

// Wire detail tokens for the stall sentinels. Serving layers attach these to
// remote errors so clients can count routing stalls separately from
// transport failures.
const (
	DetailLoopLimit  = "route/loop-limit"
	DetailNoNeighbor = "route/no-neighbor"
)

// visitedPenalty is added to the routing distance of already-visited
// neighbors: revisits are strongly avoided but remain a last resort.
const visitedPenalty = 1e6

// RecordView is one stored index record as seen from a node's slice of the
// overlay: the entry plus the overlay-wide sequence number replicas share,
// which is what lets a searcher deduplicate results exactly like the
// in-process flood does.
type RecordView struct {
	Seq   int
	Entry overlay.Entry
}

// NeighborView is the routing-table knowledge a CAN node keeps about one
// neighbor: its id and current zones. Greedy routing and flood-expansion
// decisions are made from this information alone, so a serving node carrying
// its NeighborViews can route without any global state.
type NeighborView struct {
	ID    int
	Zones []Zone
}

// NodeView is a self-contained copy of everything one node holds: its zones,
// its neighbor table (in routing order — order matters, greedy tie-breaks
// and flood visit order follow list position), and its stored records (owned
// first, then replicas, each in storage order). The machines treat views as
// read-only; drivers may share live slices.
type NodeView struct {
	ID        int
	Zones     []Zone
	Neighbors []NeighborView
	Owned     []RecordView
	Replicas  []RecordView
}

// ViewSource supplies node views on demand — the seam between the decision
// machines and whatever substrate holds the actual overlay state. The
// simulator answers from its in-memory nodes; a serving node issues a
// can_search RPC per call.
type ViewSource interface {
	// View returns node id's current view. An error aborts the lookup (only
	// possible for fallible sources; the in-process source never fails).
	View(id int) (NodeView, error)
}

// SourceFunc adapts a function to ViewSource, so drivers can compose sources
// — a view cache consulted in front of an RPC fetcher, a fault injector
// around an in-memory source — without declaring a type per combination.
// Because every composition still yields one view per id, the machines'
// decisions (and therefore the answers) are independent of which layer
// actually produced the view; only the contact cost changes.
type SourceFunc func(id int) (NodeView, error)

// View calls f.
func (f SourceFunc) View(id int) (NodeView, error) { return f(id) }

// StepKind classifies one machine decision.
type StepKind int

const (
	// StepRouteHop asks the driver to contact node To as a greedy routing
	// hop and Feed its view.
	StepRouteHop StepKind = iota
	// StepFloodVisit asks the driver to contact node To as a flood
	// expansion and Feed its view — or Skip it if the message is lost.
	StepFloodVisit
	// StepDone ends the machine; no further contact is required.
	StepDone
)

// Step is one decision emitted by a machine: which node to contact (To) and
// on whose behalf (From — the node whose view produced the decision, which
// is also the message sender for accounting). When Next returns an error,
// only From is meaningful.
type Step struct {
	Kind     StepKind
	From, To int
}

// Router greedily routes to the owner of a key, one hop decision at a time.
type Router struct {
	key     []float64
	limit   int
	hops    int
	cur     NodeView
	visited idSet
	pending bool // a RouteHop awaits Feed
	stalled bool // a stall awaits ResolveOwner
	done    bool
}

// NewRouter starts a route from the start view toward the owner of key.
// hopLimit bounds the driver-accounted hop total before the ErrLoopLimit
// stall fires (the CAN simulator uses 8*nodes+16).
func NewRouter(start NodeView, key []float64, hopLimit int) *Router {
	r := &Router{key: key, limit: hopLimit, cur: start}
	r.visited.add(start.ID)
	return r
}

// Next emits the next routing decision: StepDone when the current node owns
// the key, a StepRouteHop to the greedy-best neighbor otherwise. The stall
// outcomes ErrLoopLimit and ErrNoNeighbor must be answered with ResolveOwner
// (or the route abandoned).
func (r *Router) Next() (Step, error) {
	switch {
	case r.pending:
		panic("route: Next before Feed of the pending hop")
	case r.stalled:
		panic("route: Next before ResolveOwner of a stalled route")
	}
	if r.done || ZonesContain(r.cur.Zones, r.key) {
		r.done = true
		return Step{Kind: StepDone, From: r.cur.ID}, nil
	}
	if r.hops > r.limit {
		r.stalled = true
		return Step{From: r.cur.ID}, ErrLoopLimit
	}
	bestID, bestDist := -1, math.Inf(1)
	for _, nb := range r.cur.Neighbors {
		d := ZonesDist(nb.Zones, r.key)
		if r.visited.has(nb.ID) {
			d += visitedPenalty
		}
		if d < bestDist {
			bestID, bestDist = nb.ID, d
		}
	}
	if bestID < 0 {
		r.stalled = true
		return Step{From: r.cur.ID}, ErrNoNeighbor
	}
	r.pending = true
	return Step{Kind: StepRouteHop, From: r.cur.ID, To: bestID}, nil
}

// Feed delivers the view of the node named by the last StepRouteHop, along
// with the hops the contact cost (1 for an RPC; the attempt count for the
// simulator's retransmitting radio links — the total feeds the loop limit).
func (r *Router) Feed(v NodeView, hops int) {
	if !r.pending {
		panic("route: Feed without a pending hop")
	}
	r.pending = false
	r.hops += hops
	r.cur = v
	r.visited.add(v.ID)
}

// ResolveOwner answers a stall with the owner's view obtained out-of-band
// (the simulator's global scan), charging the given hops for the direct
// message. The route completes on the next Next.
func (r *Router) ResolveOwner(v NodeView, hops int) {
	if !r.stalled {
		panic("route: ResolveOwner without a stalled route")
	}
	r.stalled = false
	r.hops += hops
	r.cur = v
	r.done = true
}

// Owner returns the owner's view after StepDone.
func (r *Router) Owner() NodeView {
	if !r.done {
		panic("route: Owner before the route completed")
	}
	return r.cur
}

// Hops returns the accumulated driver-reported hop total.
func (r *Router) Hops() int { return r.hops }
