package node

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
	"hyperm/internal/viewcache"
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

// fetchFullView obtains one node's complete record stores at a level, which
// is what the cache keeps (a cached view must answer any later sphere, not
// just the one that fetched it): locally for this node, a can_search with the
// full flag otherwise.
func (n *Node) fetchFullView(ctx context.Context, level, id int) (searchView, error) {
	if id == n.peer {
		return n.localFullView(level), nil
	}
	views, err := n.callSearch(ctx, id, encodeSearchReq([]searchReq{{Level: level, Full: true}}), 1)
	if err != nil {
		return searchView{}, err
	}
	return decodeSearchSlot(views[0])
}

// Issue-side RPC attribution: handler-side rpc.* counters say how much
// traffic a node served; these say what it *initiated* as lookup coordinator.
// They count RPCs sent, not views obtained: one coord.can_search may answer
// every level of a query (probe.go), and coord.can_search_required is the
// share of them that re-asked for a level the first answer skipped. The
// cold-path budget metric is coord.can_search + coord.view_version per query.
const (
	ctrCoordSearch  = "coord.can_search"
	ctrCoordRequire = "coord.can_search_required"
	ctrCoordVersion = "coord.view_version"
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

// fetchVersion asks peer id for its current level state version — the cheap
// revalidation probe (16-byte request, 8-byte response) that decides whether
// a stale cached view can be reused or must be refetched.
func (n *Node) fetchVersion(ctx context.Context, level, id int) (uint64, error) {
	n.count(ctrCoordVersion)
	addr, err := n.peerAddr(id)
	if err != nil {
		return 0, err
	}
	resp, err := n.client.Call(ctx, addr, transport.Request{Method: methodViewVersion, Body: encodeLevelReq(level)})
	if err != nil {
		return 0, fmt.Errorf("node: view_version peer %d: %w", id, err)
	}
	return decodeVersionResp(resp.Body)
}

// hopLimit mirrors the simulator's routing bound (8*nodes+16) using the
// cluster size as this node currently knows it (grown by joins it hears of).
func (n *Node) hopLimit() int { return 8*n.mgr.Size() + 16 }

// cachedViews is the cache-aware ViewSource (Tuning.CacheViews): every view
// probe goes through the per-level viewcache.Cache first, at the churn epoch
// the membership manager currently reports.
//
//   - Hit (cached at the current epoch): no RPC — the overlay state a view
//     carries changes only through membership events, and none was observed
//     since the fetch, so a direct can_search would return the same view.
//   - Stale (cached at an older epoch): one view_version RPC compares the
//     responder's current state version against the cached one; a match
//     refreshes the entry (reuse), a mismatch refetches. Stale views are
//     never fed to the machines unvalidated.
//   - Miss: one full can_search fetch, installed at the probe epoch.
//
// Either way the machines see exactly the view a direct fetch would produce,
// so answers stay byte-identical to the uncached reference; the only
// difference is who pays which RPC. A fetch that finds the peer unreachable
// is memoized as a negative entry valid within the current epoch: repeat
// queries fail fast instead of re-dialing a dead peer, and any membership
// event clears the verdict.
type cachedViews struct {
	n      *Node
	ctx    context.Context
	level  int
	key    []float64
	radius float64
}

func (s cachedViews) view(id int) (route.NodeView, error) {
	n := s.n
	if id == n.peer {
		// The coordinator's own slice is a lock-protected local read — never
		// cached, so a query always starts from its node's live state.
		return n.toNodeView(n.localView(s.level, s.key, s.radius)), nil
	}
	epoch := n.mgr.Epoch(s.level)
	cv, outcome, negErr := n.cache.Get(s.level, id, epoch)
	if outcome == viewcache.Hit && n.tuning.StreamPublish {
		// Streaming publish mutates remote record stores without a membership
		// event: same-epoch entries can be silently stale, so every hit is
		// demoted to the revalidation path. The view_version probe catches
		// record churn because ApplyRecord bumps the holder's version.
		outcome = viewcache.Stale
	}
	switch outcome {
	case viewcache.Hit:
		return cv.NodeView, nil
	case viewcache.NegHit:
		return route.NodeView{}, negErr
	case viewcache.Stale:
		n.count("cache.revalidate")
		ver, err := n.fetchVersion(s.ctx, s.level, id)
		if err == nil && ver == cv.Version {
			if v2, ok := n.cache.Confirm(s.level, id, epoch); ok {
				n.count("cache.revalidate_ok")
				return v2.NodeView, nil
			}
		}
		n.count("cache.revalidate_stale")
		if errors.Is(err, transport.ErrUnavailable) {
			n.cache.PutNegative(s.level, id, err, epoch)
			return route.NodeView{}, err
		}
		n.cache.Invalidate(s.level, id)
	}
	return s.fetch(id, epoch)
}

// fetch fills the cache with one full can_search and returns the view.
func (s cachedViews) fetch(id int, epoch uint64) (route.NodeView, error) {
	n := s.n
	sv, err := n.fetchFullView(s.ctx, s.level, id)
	if err != nil {
		if errors.Is(err, transport.ErrUnavailable) {
			n.cache.PutNegative(s.level, id, err, epoch)
		}
		return route.NodeView{}, err
	}
	v := viewcache.View{NodeView: n.toNodeView(sv), Version: sv.Version}
	n.cache.Put(s.level, id, v, epoch)
	return v.NodeView, nil
}

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

// searchSphere runs the full lookup for one level by driving the shared
// route.Search machine over RPC-fetched views, with up to α can_search
// probes in flight per flood step (every ViewSource here is safe for the
// concurrent View calls RunAlpha makes; answers stay byte-identical to the
// serial drive). With Tuning.CacheViews the fetcher is composed behind the
// view cache — same machine, same decisions, fewer RPCs — and whole
// lookups are memoized per epoch: a repeat of a bit-identical query sphere
// within one churn epoch skips the machine entirely and returns the recorded
// entries and hops (deterministic machine + epoch-stable views ⇒ identical
// result; see viewcache.GetSearch).
func (n *Node) searchSphere(ctx context.Context, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	if n.cache == nil {
		return n.runSearch(n.sphereViews(ctx, level, key, radius), level, key, radius)
	}

	mk := memoKey(key, radius)
	epoch := n.mgr.Epoch(level)
	// The whole-lookup memo is keyed by churn epoch alone; streamed record
	// deltas change lookup answers without an epoch bump, so under
	// StreamPublish the memo is bypassed entirely (per-view revalidation in
	// cachedViews still saves the bulk RPCs).
	useMemo := !n.tuning.StreamPublish
	if useMemo {
		if entries, hops, ok := n.cache.GetSearch(level, mk, epoch); ok {
			return entries, hops, nil
		}
	}
	src := route.SourceFunc(cachedViews{n: n, ctx: ctx, level: level, key: key, radius: radius}.view)
	entries, hops, err := n.runSearch(src, level, key, radius)
	if err != nil {
		return nil, hops, err
	}
	// Memoize only runs whose epoch held steady end to end: an epoch bump
	// mid-search may have mixed views from two topologies, and such a result
	// must not outlive the lookup that produced it.
	if useMemo && n.mgr.Epoch(level) == epoch {
		n.cache.PutSearch(level, mk, entries, hops, epoch)
	}
	return entries, hops, nil
}

// runSearch drives one level's route.Search machine to completion over src,
// starting from this node's own view.
func (n *Node) runSearch(src route.ViewSource, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	start, err := src.View(n.peer)
	if err != nil {
		return nil, 0, err
	}
	s := route.NewSearch(start, key, radius, n.hopLimit())
	entries, hops, err := route.RunAlpha(s, src, n.tuning.Alpha)
	if err != nil {
		return nil, hops, fmt.Errorf("node: level %d search at %v: %w", level, key, err)
	}
	return entries, hops, nil
}

func (b *netBackend) Search(from, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	return b.n.searchSphere(context.Background(), level, key, radius)
}

// FetchRange and FetchKNN go straight to the scored peer's endpoint. With
// Tuning.CacheViews they go through the coordinator-side memo, which builds
// its key from the arguments and encodes a request only on a miss. A dead or
// unreachable peer yields no items and no error (see callFetch).
func (b *netBackend) FetchRange(from, peer int, q []float64, eps float64) ([]int, error) {
	n := b.n
	if peer == n.peer {
		return n.localRange(q, eps), nil
	}
	if n.tuning.CacheViews {
		v, unavailable, err := n.cachedFetch(context.Background(), peer, 'r', methodFetchRange, q, math.Float64bits(eps), func(b []byte) (any, error) {
			return decodeFetchRangeResp(b)
		})
		if unavailable || err != nil {
			return nil, err
		}
		return v.([]int), nil
	}
	resp, unavailable, err := n.callFetch(context.Background(), peer, methodFetchRange, encodeFetchRangeReq(q, eps))
	if unavailable || err != nil {
		return nil, err
	}
	return decodeFetchRangeResp(resp)
}

func (b *netBackend) FetchKNN(from, peer int, q []float64, k int) ([]core.ItemDist, error) {
	n := b.n
	if peer == n.peer {
		return n.localKNN(q, k), nil
	}
	if n.tuning.CacheViews {
		v, unavailable, err := n.cachedFetch(context.Background(), peer, 'k', methodFetchKNN, q, uint64(int64(k)), func(b []byte) (any, error) {
			return decodeFetchKNNResp(b)
		})
		if unavailable || err != nil {
			return nil, err
		}
		return v.([]core.ItemDist), nil
	}
	resp, unavailable, err := n.callFetch(context.Background(), peer, methodFetchKNN, encodeFetchKNNReq(q, k))
	if unavailable || err != nil {
		return nil, err
	}
	return decodeFetchKNNResp(resp)
}
