package node

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
	"hyperm/internal/wavelet"
)

// This file adapts the routing core (internal/route) to the serving runtime.
// The querying node acts as lookup coordinator: it holds its own slice
// locally (zero hops, like the in-process search starting at `from`) and
// feeds the route.Search machine one view per contact — its own view for
// free, a remote node's from a can_search response, which carries everything
// the next decision needs (zones, neighbor table, matching records). Every
// routing and flood decision is made by the same machine the simulator
// drives, so served answers are byte-identical to the core.System oracle by
// construction: one implementation, two ViewSources.
//
// Hops count Feeds exactly like the simulator counts messages (one per view
// fed), so hops >= RPCs: a flood wave re-entering the coordinator's own zone
// is a free local read, and a query asks each peer about all of its levels in
// one can_search (probe.go) — each charged one hop all the same, just as the
// simulator charges the message.
//
// The machine's two stall outcomes (route.ErrLoopLimit, route.ErrNoNeighbor)
// are resolved by the simulator with a global scan; a serving node has no
// global view, so here they surface as request errors carrying their
// sentinel (and, across the wire, their detail token — see remoteErr).

// toNodeView shapes a wire view for the routing machines, learning the
// neighbor addresses it carries (how a node hears about peers that joined
// after its address book was seeded).
func (n *Node) toNodeView(v searchView) route.NodeView {
	nbs := make([]route.NeighborView, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		n.mgr.LearnAddr(nb.ID, nb.Addr)
		nbs[i] = route.NeighborView{ID: nb.ID, Zones: nb.Zones}
	}
	return route.NodeView{ID: v.ID, Zones: v.Zones, Neighbors: nbs, Owned: v.Owned, Replicas: v.Replicas}
}

// Issue-side RPC attribution: handler-side rpc.* counters say how much
// traffic a node served; these say what it *initiated* as lookup coordinator.
// They count RPCs sent, not views obtained: one coord.can_search may answer
// every level of a query (probe.go), and coord.can_search_required is the
// share of them that re-asked for a level the first answer skipped. The
// cold-path budget metric is coord.can_search per query.
const (
	ctrCoordSearch  = "coord.can_search"
	ctrCoordRequire = "coord.can_search_required"
)

// callSearch sends one can_search to peer id and cuts the response into its
// encoded views, one per sphere of the request (want of them), undecoded.
func (n *Node) callSearch(ctx context.Context, id int, body []byte, want int) ([][]byte, error) {
	addr, err := n.peerAddr(id)
	if err != nil {
		return nil, err
	}
	n.count(ctrCoordSearch)
	views, err := n.callSearchAddr(ctx, addr, body, want)
	if err != nil {
		return nil, fmt.Errorf("node: can_search peer %d: %w", id, err)
	}
	return views, nil
}

func (n *Node) callSearchAddr(ctx context.Context, addr string, body []byte, want int) ([][]byte, error) {
	resp, err := n.client.Call(ctx, addr, transport.Request{Method: methodCanSearch, Body: body})
	if err != nil {
		return nil, err
	}
	views, err := splitSearchResp(resp.Body)
	if err == nil && len(views) != want {
		err = fmt.Errorf("response carries %d views for %d spheres", len(views), want)
	}
	return views, err
}

// checkView refuses a peer's view of level unless it is all of the level's
// dimension (membership.CheckView): before a route machine or the engine sees
// a view, so a hostile one fails the query instead of panicking the node.
func checkView(level int, v searchView) error {
	return membership.CheckView(wavelet.SubspaceDim(level), v.Zones, v.Neighbors, v.Owned, v.Replicas)
}

// hopLimit mirrors the simulator's routing bound (8*nodes+16) using the
// cluster size as this node currently knows it (grown by joins it hears of).
func (n *Node) hopLimit() int { return 8*n.mgr.Size() + 16 }

// memoKey encodes a query sphere for the lookup memo: the raw bits of the
// radius and every key coordinate, so only bit-identical spheres collide.
// Returned as a byte slice so the hit path can look it up without the
// string-copy allocation (the cache only materialises a string on store).
func memoKey(key []float64, radius float64) []byte {
	buf := make([]byte, 8*(len(key)+1))
	binary.BigEndian.PutUint64(buf, math.Float64bits(radius))
	for i, x := range key {
		binary.BigEndian.PutUint64(buf[8*(i+1):], math.Float64bits(x))
	}
	return buf
}

// searchSphere runs one level's lookup over src, behind the whole-lookup memo
// when the node has one: a repeat of a bit-identical query sphere within one
// churn epoch skips the machine and returns the recorded entries and hops. A
// level search is a deterministic function of the sphere and the views it is
// fed, and the views change only through membership events, each of which
// bumps the epoch the memo is keyed on (see viewcache.GetSearch). Streamed
// record deltas change answers without an epoch bump, so under StreamPublish
// there is no memo and every lookup runs the machine.
func (n *Node) searchSphere(src route.ViewSource, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	if n.memo == nil {
		return n.runSearch(src, level, key, radius)
	}
	mk := memoKey(key, radius)
	epoch := n.mgr.Epoch(level)
	if entries, hops, ok := n.memo.GetSearch(level, mk, epoch); ok {
		return entries, hops, nil
	}
	entries, hops, err := n.runSearch(src, level, key, radius)
	if err != nil {
		return nil, hops, err
	}
	// Memoize only runs whose epoch held steady end to end: an epoch bump
	// mid-search may have mixed views from two topologies, and such a result
	// must not outlive the lookup that produced it.
	if n.mgr.Epoch(level) == epoch {
		n.memo.PutSearch(level, mk, entries, hops, epoch)
	}
	return entries, hops, nil
}

// runSearch drives one level's route.Search machine to completion over src,
// starting from this node's own view, with up to α can_search probes in
// flight per flood step (probeViews is safe for the concurrent View calls
// RunAlpha makes; answers stay byte-identical to the serial drive).
func (n *Node) runSearch(src route.ViewSource, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	start, err := src.View(n.peer)
	if err != nil {
		return nil, 0, err
	}
	s := route.NewSearch(start, key, radius, n.hopLimit())
	entries, hops, err := route.RunAlpha(s, src, n.tuning.fan(lookupAlpha))
	if err != nil {
		return nil, hops, fmt.Errorf("node: level %d search at %v: %w", level, key, err)
	}
	return entries, hops, nil
}

// Search runs a sphere the query announced to Scope over the query's shared
// probe table, and any other — a k-nn level widening past its first radius —
// as a lookup of its own.
func (b *netBackend) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	if t := b.table; t != nil {
		for i, sp := range t.spheres {
			if sp.Level == level && sp.Radius == radius && slices.Equal(sp.Key, key) {
				return b.n.searchSphere(probeViews{t, i}, level, key, radius)
			}
		}
	}
	return b.n.searchSphere(b.n.sphereViews(b.ctx, level, key, radius), level, key, radius)
}

// FetchRange and FetchKNN are each one retrieval pass over the query's scored
// peers (fetchAll, fetchcache.go): the backend, not the engine, decides what
// goes on the wire and how much of it at once.
func (b *netBackend) FetchRange(from int, peers []int, q []float64, eps float64) ([][]int, []error) {
	tail := math.Float64bits(eps)
	return fetchAll(b.ctx, b.n, rangeFetch, peers, q, func(int) uint64 { return tail })
}

func (b *netBackend) FetchKNN(from int, peers, wants []int, q []float64) ([][]core.ItemDist, []error) {
	return fetchAll(b.ctx, b.n, knnFetch, peers, q, func(i int) uint64 { return uint64(int64(wants[i])) })
}
