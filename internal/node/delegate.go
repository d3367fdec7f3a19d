package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
	"hyperm/internal/viewcache"
)

// Delegated flood aggregation (Tuning.AggFanout > 0).
//
// The serial reference has the lookup coordinator contact every
// sphere-intersecting zone owner itself — Θ(N) can_search RPCs on a cold
// query. In delegated mode the coordinator still drives the exact same
// route.Search machine, but views arrive differently: on the first flood
// visit of an unexplored region it sends ONE can_search_agg to that node,
// which floods the region from its own (free, local) view, fetches or
// sub-delegates the rest, and returns every full view it gathered plus the
// ids it claimed. The coordinator merges the piggybacked views into a
// per-query pool (route.MergeViews, exact first-wins dedup), installs them
// into its viewcache at the pre-gather epoch, and replays the machine with
// pool-first resolution — so entries, hops, and errors stay byte-identical
// to route.Run over direct fetches (TestDelegationDifferential), while
// coordinator RPCs per cold query drop from Θ(N) to O(routing hops +
// delegations). Pool gaps are harmless: the replay falls back to the
// ordinary per-node fetch path.
//
// Epoch note: a delegate may serve a view out of its own cache that is
// fresh by the delegate's epoch reckoning. The coordinator installs
// piggybacked views at the epoch it observed before the gather, so any
// event the coordinator has seen (or sees next) marks them stale and forces
// revalidation — the same residual in-flight window every RPC already has
// (DESIGN.md §13).

// DefaultAggDepth is the recursive sub-delegation budget when
// Tuning.AggFanout is on and no depth is given.
const DefaultAggDepth = 2

// Server-side clamps on delegation requests, so a buggy or hostile
// requester cannot make one RPC fan out without bound.
const (
	maxAggDepth  = 8
	maxAggFanout = 32
)

// warmPeersCap bounds the recent-requester set the proactive warmer pushes
// to; beyond it the oldest requesters are forgotten.
const warmPeersCap = 64

// gatherer drives one delegate-side region gather: the ViewSource and
// SubDelegate that route.Delegate consumes, keeping the full wire views
// (version + neighbor addresses) alongside the NodeViews the flood machine
// sees, so the response can piggyback everything the requester needs to
// install them.
type gatherer struct {
	n      *Node
	ctx    context.Context
	level  int
	key    []float64
	radius float64
	fanout int
	views  map[int]searchView
}

// View fetches one node's full view for the gather — through this
// delegate's own viewcache when it has one, a direct can_search otherwise.
func (g *gatherer) View(id int) (route.NodeView, error) {
	if g.n.cache != nil {
		return g.n.cachedFullView(g.ctx, g.level, id, g.views)
	}
	sv, err := g.n.fetchFullView(g.ctx, g.level, id, ctrAggFetch)
	if err != nil {
		return route.NodeView{}, err
	}
	g.views[id] = sv
	return g.n.toNodeView(sv), nil
}

// sub forwards one sub-delegation and folds the piggybacked views into the
// gather.
func (g *gatherer) sub(to int, claimed []int, depth int) (route.DelegateResult, error) {
	svs, subClaimed, err := g.n.callAgg(g.ctx, g.level, to, g.key, g.radius, claimed, depth, g.fanout, ctrAggSub)
	if err != nil {
		return route.DelegateResult{}, err
	}
	res := route.DelegateResult{Claimed: subClaimed, Views: make([]route.NodeView, 0, len(svs))}
	for _, sv := range svs {
		if _, ok := g.views[sv.ID]; !ok {
			g.views[sv.ID] = sv
		}
		res.Views = append(res.Views, g.n.toNodeView(sv))
	}
	return res, nil
}

// cachedFullView serves one gather fetch through this delegate's viewcache
// — but with a stricter freshness bar than the delegate's own lookups. A
// piggybacked view must be bit-identical to what a live fetch would return
// NOW: churn epochs are per-node local counters, so "fresh at this
// delegate's epoch" proves nothing to a coordinator that may have observed
// events this delegate has not. Every cached entry — even an epoch-fresh
// hit — is therefore revalidated with a version probe (8-byte RPC) before
// it may be piggybacked; a match proves the responder's state has not
// changed since the cached copy was taken, anything else is fetched live.
// What the cache still saves is the record payload, not the round trip.
// No hotness is fed (the demand belongs to the requesting coordinator).
func (n *Node) cachedFullView(ctx context.Context, level, id int, sink map[int]searchView) (route.NodeView, error) {
	epoch := n.mgr.Epoch(level)
	cv, outcome, negErr := n.cache.Get(level, id, epoch)
	switch outcome {
	case viewcache.NegHit:
		// A false negative (this delegate's verdict is behind a rejoin) only
		// costs a pool gap — the coordinator's fallback learns the truth.
		return route.NodeView{}, negErr
	case viewcache.Hit, viewcache.Stale:
		n.count("cache.revalidate")
		ver, err := n.fetchVersion(ctx, level, id, ctrAggVersion)
		if err == nil && ver == cv.Version {
			if v2, ok := n.cache.Confirm(level, id, epoch); ok {
				n.count("cache.revalidate_ok")
				sink[id] = n.searchFromCached(v2)
				return v2.NodeView, nil
			}
		}
		n.count("cache.revalidate_stale")
		if errors.Is(err, transport.ErrUnavailable) {
			n.cache.PutNegative(level, id, err, epoch)
			return route.NodeView{}, err
		}
		n.cache.Invalidate(level, id)
	}
	sv, err := n.fetchFullView(ctx, level, id, ctrAggFetch)
	if err != nil {
		if errors.Is(err, transport.ErrUnavailable) {
			n.cache.PutNegative(level, id, err, epoch)
		}
		return route.NodeView{}, err
	}
	v := viewcache.View{NodeView: n.toNodeView(sv), Version: sv.Version}
	n.cache.Put(level, id, v, epoch)
	sink[id] = sv
	return v.NodeView, nil
}

// searchFromCached rebuilds a wire view from a cached one. Neighbor
// addresses were dropped on the way into the cache; refill them from this
// node's address book so the requester can learn peers it has never fetched
// (best-effort — LearnAddr ignores the blanks left by unknown ids).
func (n *Node) searchFromCached(v viewcache.View) searchView {
	nbs := make([]membership.Neighbor, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		addr, _ := n.mgr.Addr(nb.ID)
		nbs[i] = membership.Neighbor{ID: nb.ID, Addr: addr, Zones: nb.Zones}
	}
	return searchView{ID: v.ID, Version: v.Version, Zones: v.Zones, Neighbors: nbs, Owned: v.Owned, Replicas: v.Replicas}
}

// handleAgg serves one can_search_agg: flood the requested sphere region
// from this node's local view (free), avoiding the requester's claimed set,
// sub-delegating up to fanout frontier claims with the remaining depth
// budget, and return every gathered full view plus the final claimed set.
func (n *Node) handleAgg(ctx context.Context, body []byte) (transport.Response, error) {
	req, err := decodeAggReq(body)
	if err != nil {
		return transport.Response{}, err
	}
	if req.Level < 0 || req.Level >= n.mgr.NumLevels() {
		return transport.Response{}, fmt.Errorf("node: no level %d", req.Level)
	}
	if req.Depth > maxAggDepth {
		req.Depth = maxAggDepth
	}
	if req.Fanout > maxAggFanout {
		req.Fanout = maxAggFanout
	}
	n.noteAggRequester(req.From)

	rootSV := n.localFullView(req.Level)
	g := &gatherer{n: n, ctx: ctx, level: req.Level, key: req.Key, radius: req.Radius, fanout: req.Fanout, views: map[int]searchView{}}
	res := route.Delegate(n.toNodeView(rootSV), req.Key, req.Radius, req.Claimed, req.Depth, req.Fanout, g, g.sub)

	out := make([]searchView, 0, len(res.Views))
	for _, nv := range res.Views {
		if nv.ID == n.peer {
			out = append(out, rootSV)
		} else if sv, ok := g.views[nv.ID]; ok {
			out = append(out, sv)
		}
	}
	respBody, err := encodeAggResp(out, res.Claimed)
	if err != nil {
		return transport.Response{}, err
	}
	return transport.Response{Body: respBody}, nil
}

// callAgg issues one can_search_agg to peer id. ctr attributes it to the
// issuing role (query coordinator vs sub-delegating delegate).
func (n *Node) callAgg(ctx context.Context, level, id int, key []float64, radius float64, claimed []int, depth, fanout int, ctr string) ([]searchView, []int, error) {
	addr, err := n.peerAddr(id)
	if err != nil {
		return nil, nil, err
	}
	n.count(ctr)
	body := encodeAggReq(aggReq{From: n.peer, Level: level, Key: key, Radius: radius, Depth: depth, Fanout: fanout, Claimed: claimed})
	resp, err := n.client.Call(ctx, addr, transport.Request{Method: methodCanSearchAgg, Body: body})
	if err != nil {
		return nil, nil, fmt.Errorf("node: can_search_agg peer %d: %w", id, err)
	}
	return decodeAggResp(resp.Body)
}

// searchSphereDelegated is searchSphere in delegated mode: the same serial
// route.Search machine, fed pool-first. The pool fills from can_search_agg
// piggybacks; anything it misses takes the ordinary per-node fetch path, so
// every answer (and every error) is the one the reference drive produces.
func (n *Node) searchSphereDelegated(ctx context.Context, level int, key []float64, radius float64) ([]overlay.Entry, int, error) {
	var mk []byte
	var epoch uint64
	if n.cache != nil {
		mk = memoKey(key, radius)
		epoch = n.mgr.Epoch(level)
		if entries, hops, ok := n.cache.GetSearch(level, mk, epoch); ok {
			return entries, hops, nil
		}
	}
	pool := map[int]viewcache.View{}
	cv := cachedViews{n: n, ctx: ctx, level: level, key: key, radius: radius}
	start := n.toNodeView(n.localView(level, key, radius))
	s := route.NewSearch(start, key, radius, n.hopLimit())
	for {
		step, err := s.Next()
		if err != nil {
			return nil, s.Hops(), fmt.Errorf("node: level %d search at %v: %w", level, key, err)
		}
		if step.Kind == route.StepDone {
			break
		}
		v, err := n.delegatedView(ctx, cv, pool, step)
		if err != nil {
			return nil, s.Hops(), fmt.Errorf("node: level %d search at %v: %w", level, key, err)
		}
		s.Feed(v, 1)
	}
	entries, hops := s.Results(), s.Hops()
	if n.cache != nil {
		if n.tuning.HotReplicate {
			n.pullHotReplicas(ctx, level)
		}
		// Memoize only epoch-stable runs, exactly like the serial cached path.
		if n.mgr.Epoch(level) == epoch {
			n.cache.PutSearch(level, mk, entries, hops, epoch)
		}
	}
	return entries, hops, nil
}

// delegatedView resolves one machine step: own view live, then the pool,
// then — for the first flood visit into an unexplored region — a delegation
// that fills the pool with the whole region, and finally the ordinary
// fetch path as fallback.
func (n *Node) delegatedView(ctx context.Context, cv cachedViews, pool map[int]viewcache.View, step route.Step) (route.NodeView, error) {
	if step.To == n.peer {
		return n.toNodeView(n.localView(cv.level, cv.key, cv.radius)), nil
	}
	if pv, ok := pool[step.To]; ok {
		n.count("agg.pool_hit")
		return n.usePoolView(cv, pv), nil
	}
	if step.Kind == route.StepFloodVisit {
		n.delegateRegion(ctx, cv, pool, step.To)
		if pv, ok := pool[step.To]; ok {
			return n.usePoolView(cv, pv), nil
		}
	}
	// Pool miss: the ordinary per-node path (cache-aware when enabled).
	n.count("agg.fallback")
	if n.cache != nil {
		return cv.view(step.To)
	}
	return n.sphereViews(ctx, cv.level, cv.key, cv.radius).View(step.To)
}

// delegateRegion sends one can_search_agg to the region's first contact and
// merges whatever comes back into the pool and (at the pre-gather epoch)
// this coordinator's viewcache. Best-effort: on failure the pool simply
// stays as it was and the caller falls back.
func (n *Node) delegateRegion(ctx context.Context, cv cachedViews, pool map[int]viewcache.View, to int) {
	// Claim exactly the pooled ids: the views this coordinator can already
	// serve on replay. Claiming never loses coverage (any pocket the claim
	// wall hides sits behind a pooled view, and the coordinator's own machine
	// expands through it, delegating the pocket next), so the trade is pure:
	// a claim saves the delegate one refetch but walls its flood. Machine-
	// resolved-but-unpooled nodes — above all the routing path, which winds
	// INTO the sphere region — are deliberately NOT claimed: claiming them
	// shatters the region into per-pocket delegations (measured ~7× the
	// coordinator RPCs), while letting the delegate refetch those few views
	// keeps the first gather whole-region and the delegate's extra cost at a
	// handful of its own fetches.
	claimed := make([]int, 0, len(pool))
	for id := range pool {
		if id != to {
			claimed = append(claimed, id)
		}
	}
	var instEpoch uint64
	if n.cache != nil {
		// Snapshot before the gather, like cachedViews.fetch: an event
		// racing the gather leaves the installs stale, never wrongly fresh.
		instEpoch = n.mgr.Epoch(cv.level)
	}
	svs, _, err := n.callAgg(ctx, cv.level, to, cv.key, cv.radius, claimed, n.tuning.AggDepth, n.tuning.AggFanout, ctrCoordAgg)
	if err != nil {
		n.count("agg.delegate_fail")
		return
	}
	pooled := 0
	for _, sv := range svs {
		if _, ok := pool[sv.ID]; ok || sv.ID == n.peer {
			continue // exact first-wins dedup, own view never pooled
		}
		v := viewcache.View{NodeView: n.toNodeView(sv), Version: sv.Version}
		pool[sv.ID] = v
		pooled++
		if n.cache != nil {
			n.cache.PutRefresh(cv.level, sv.ID, v, instEpoch)
		}
	}
	n.count("agg.gather")
	n.counters.Add("agg.gathered_views", float64(pooled))
}

// usePoolView hands a pooled view to the machine, feeding the hotness
// sketch like the cached path does (pool views carry full stores, and the
// sketch only queues holders that are not already pinned).
func (n *Node) usePoolView(cv cachedViews, v viewcache.View) route.NodeView {
	if n.cache != nil && n.tuning.HotReplicate {
		nv, _ := cv.use(v)
		return nv
	}
	return v.NodeView
}

// ---- proactive warming ----

// noteAggRequester remembers who recently delegated to this node — the
// coordinators most likely to hold (and re-need) this node's view.
func (n *Node) noteAggRequester(from int) {
	if from == n.peer || from < 0 {
		return
	}
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	if n.warmPeers == nil {
		n.warmPeers = make(map[int]uint64)
	}
	n.warmSeq++
	n.warmPeers[from] = n.warmSeq
	if len(n.warmPeers) > warmPeersCap {
		oldest, oldestSeq := -1, n.warmSeq+1
		for id, seq := range n.warmPeers {
			if seq < oldestSeq {
				oldest, oldestSeq = id, seq
			}
		}
		delete(n.warmPeers, oldest)
	}
}

// recentAggRequesters returns up to max requester ids, most recent first.
func (n *Node) recentAggRequesters(max int) []int {
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	out := make([]int, 0, len(n.warmPeers))
	for id := range n.warmPeers {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ { // insertion sort by recency, newest first
		for j := i; j > 0 && n.warmPeers[out[j]] > n.warmPeers[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// onEpochBump is the membership epoch hook (Tuning.WarmPush > 0): it runs
// under the manager's lock, so it only marks the level dirty and nudges the
// warm loop — never blocks.
func (n *Node) onEpochBump(level int) {
	n.warmDirty[level].Store(true)
	select {
	case n.warmNotify <- struct{}{}:
	default:
	}
}

// warmLoop pushes this node's refreshed view to recent delegation
// requesters after churn epochs, shrinking their post-invalidation cliff:
// the receivers' stale entries revalidate against (or are replaced by) the
// pushed copy instead of costing a refetch on the next cold query.
// Coalescing is free — dirty flags absorb event bursts between pushes.
func (n *Node) warmLoop() {
	defer n.warmWG.Done()
	for {
		select {
		case <-n.warmStop:
			return
		case <-n.warmNotify:
		}
		for level := range n.warmDirty {
			if !n.warmDirty[level].Swap(false) {
				continue
			}
			n.warmPushLevel(level)
		}
	}
}

// warmPushLevel sends this node's current full level view to up to
// Tuning.WarmPush recent requesters. Best-effort: failures are dropped, the
// next epoch bump retries with a fresher view anyway.
func (n *Node) warmPushLevel(level int) {
	targets := n.recentAggRequesters(n.tuning.WarmPush)
	if len(targets) == 0 {
		return
	}
	body, err := encodeWarmReq(n.peer, level, n.localFullView(level))
	if err != nil {
		return
	}
	for _, id := range targets {
		addr, err := n.peerAddr(id)
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err = n.client.Call(ctx, addr, transport.Request{Method: methodWarmViews, Body: body})
		cancel()
		if err == nil {
			n.count("warm.push")
		}
	}
}

// handleWarm installs one pushed view, one epoch behind. A push is late by
// construction: the sender encoded it some time ago and may since have
// applied the next membership event — which this node may have observed
// already, so a copy installed at the current epoch would pass for fresh,
// name neighbors that are gone and miss records handed over since (seen as a
// post-churn query failing on a view_version to a departed peer). Installed
// behind, the first lookup that wants the view pays the 8-byte view_version
// probe and uses it only on a match; what the push saves is the payload.
// PutRefresh drops version regressions from reordered pushes and preserves
// pins.
func (n *Node) handleWarm(body []byte) (transport.Response, error) {
	from, level, sv, err := decodeWarmReq(body)
	if err != nil {
		return transport.Response{}, err
	}
	if level < 0 || level >= n.mgr.NumLevels() {
		return transport.Response{}, fmt.Errorf("node: no level %d", level)
	}
	if n.cache != nil && sv.ID != n.peer && sv.ID == from {
		n.cache.PutRefresh(level, sv.ID, viewcache.View{NodeView: n.toNodeView(sv), Version: sv.Version}, n.mgr.Epoch(level)-1)
		n.count("warm.install")
	}
	return transport.Response{}, nil
}

// ClearCaches drops every warm artifact this node holds — view cache,
// lookup memos, holder- and coordinator-side fetch memos — returning it to
// the cold-start state. The bench harness's cold phase uses it to measure
// first-touch cost on an otherwise warm, quiesced cluster; not intended to
// run concurrently with queries this node is coordinating.
func (n *Node) ClearCaches() {
	if n.cache != nil {
		n.cache.Clear()
	}
	n.fetchMu.Lock()
	n.fetchMemo = nil
	n.fetchGen++
	n.fetchMu.Unlock()
	n.cliMu.Lock()
	n.cliFetch = nil
	n.cliCount = 0
	n.cliMu.Unlock()
}
