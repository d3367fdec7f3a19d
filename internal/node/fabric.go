package node

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hyperm/internal/membership"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// This file implements membership.Fabric on *Node: the membership manager
// decides what to say, the node knows how to reach peers (the retrying
// transport client) and how to run overlay machinery (the shared routing
// core over can_search views).

var _ membership.Fabric = (*Node)(nil)

// Call performs one membership RPC against addr.
func (n *Node) Call(ctx context.Context, addr, method string, body []byte) ([]byte, error) {
	resp, err := n.client.Call(ctx, addr, transport.Request{Method: method, Body: body})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// fetchViewAddr obtains one can_search view from a peer known only by
// address — the bootstrap contact of a join, before any id is known.
func (n *Node) fetchViewAddr(ctx context.Context, addr string, level int, key []float64, radius float64) (searchView, error) {
	req := searchReq{Level: level, Key: key, Radius: radius}
	views, err := n.callSearchAddr(ctx, addr, transport.Encode(&[]searchReq{req}, walkSearchReq), 1)
	if err != nil {
		return searchView{}, fmt.Errorf("node: can_search %s: %w", addr, err)
	}
	sv, err := transport.Decode(views[0], walkSearchView)
	if err == nil {
		err = checkView(level, sv)
	}
	return sv, err
}

// RouteOwner greedily routes from the bootstrap address to the owner of key
// at level, learning peer addresses from the views along the way.
func (n *Node) RouteOwner(ctx context.Context, level int, bootstrap string, key []float64) (int, string, error) {
	sv, err := n.fetchViewAddr(ctx, bootstrap, level, key, 0)
	if err != nil {
		return 0, "", err
	}
	addrs := map[int]string{sv.ID: bootstrap}
	learn := func(v searchView) {
		for _, nb := range v.Neighbors {
			if nb.Addr != "" {
				addrs[nb.ID] = nb.Addr
			}
		}
	}
	learn(sv)
	r := route.NewRouter(n.toNodeView(sv), key, n.hopLimit())
	for {
		step, err := r.Next()
		if err != nil {
			return 0, "", fmt.Errorf("node: routing to owner of %v at level %d: %w", key, level, err)
		}
		if step.Kind == route.StepDone {
			owner := r.Owner()
			addr, ok := addrs[owner.ID]
			if !ok {
				if addr, err = n.peerAddr(owner.ID); err != nil {
					return 0, "", err
				}
			}
			return owner.ID, addr, nil
		}
		addr, ok := addrs[step.To]
		if !ok {
			if addr, err = n.peerAddr(step.To); err != nil {
				return 0, "", err
			}
		}
		v, err := n.fetchViewAddr(ctx, addr, level, key, 0)
		if err != nil {
			return 0, "", err
		}
		learn(v)
		r.Feed(n.toNodeView(v), 1)
	}
}

// Collect runs a sphere search at level and returns every reachable record
// intersecting the sphere — deduplicated by sequence number and seq-sorted,
// the live twin of the simulator's global recovery scan. It harvests from
// every view the search touches (start, routing hops, flood visits); the
// replication invariant puts a holder of every matching record inside the
// flooded region, so coverage matches the oracle's scan. Peers that die
// mid-flood are skipped (their visit is abandoned) — exactly the survivors
// the simulator's scan would see.
func (n *Node) Collect(ctx context.Context, level int, key []float64, radius float64) ([]route.RecordView, error) {
	src := n.sphereViews(ctx, level, key, radius)
	seen := map[int]bool{}
	var out []route.RecordView
	harvest := func(v route.NodeView) {
		for _, recs := range [2][]route.RecordView{v.Owned, v.Replicas} {
			for _, rec := range recs {
				if seen[rec.Seq] {
					continue
				}
				if route.TorusDist(rec.Entry.Key, key) <= rec.Entry.Radius+radius {
					seen[rec.Seq] = true
					out = append(out, rec)
				}
			}
		}
	}
	start, err := src.View(n.peer)
	if err != nil {
		return nil, err
	}
	harvest(start)
	s := route.NewSearch(start, key, radius, n.hopLimit())
	for {
		step, err := s.Next()
		if err != nil {
			return nil, fmt.Errorf("node: recovery search at %v level %d: %w", key, level, err)
		}
		if step.Kind == route.StepDone {
			break
		}
		v, err := src.View(step.To)
		if err != nil {
			if step.Kind == route.StepFloodVisit && errors.Is(err, transport.ErrUnavailable) {
				s.Skip(1)
				continue
			}
			return nil, err
		}
		harvest(v)
		s.Feed(v, 1)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
