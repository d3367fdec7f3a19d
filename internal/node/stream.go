package node

import (
	"context"
	"errors"
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/parallel"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// This file is the live half of streaming incremental publish (the simulator
// half is core.System.StreamInsert). A streamed Publish runs the shared
// kernel (core.StreamPublisher) against this node's published summaries and
// announces each resulting record delta peer-to-peer: greedy-route to the
// record's owner, every hop a store_rec that applies only at the owner, then
// flood the record's sphere applying at every reached holder — the exact
// visit pattern of can.Overlay.streamOp, driven by the same route machines
// over store_rec views, so both substrates' record stores stay
// byte-identical. The levels are separate overlays, so a publish announces
// them at once; within a level its deltas go one after the other, in kernel
// order.

// Issue-side attribution of the announce traffic (handler side shows up as
// rpc.m.store_rec).
const ctrStreamRec = "stream.store_rec"

// publishStream is Publish with Tuning.StreamPublish on.
func (n *Node) publishStream(id int, item []float64) error {
	n.mu.Lock()
	if n.published == nil {
		n.mu.Unlock()
		return fmt.Errorf("node: peer %d has not published; streaming publish needs a base clustering", n.peer)
	}
	if n.stream == nil {
		n.stream = core.NewStreamState(core.StreamTuning{ReclusterEvery: n.tuning.ReclusterEvery}, n.cfg.Levels)
	}
	n.store.Append(id, item)
	sp := &core.StreamPublisher{
		Peer:            n.peer,
		Convention:      n.cfg.Convention,
		ClustersPerPeer: n.cfg.ClustersPerPeer,
		Mappers:         n.mappers,
		Published:       n.published,
		PubSeqs:         n.pubSeqs,
		State:           n.stream,
	}
	deltas := sp.Insert(item, n.store)
	n.published, n.pubSeqs = sp.Published, sp.PubSeqs
	// Take this publish's place in the announce order while the kernel's lock
	// still fixes it: a holder applies a record delta last-writer-wins
	// (route.UpsertRecord carries no version), so two publishes racing here
	// must announce in the order the kernel ran them, or an older Items/Radius
	// lands on top of a newer one and stays.
	prev, mine := n.announced, make(chan struct{})
	n.announced = mine
	n.mu.Unlock()
	defer close(mine)

	// Same item-store coherence as the stale-publish path: every coordinator
	// caching an answer the new item can change, this node included, must
	// forget it (see fetchcache.go).
	n.sweepFetchDir([][]float64{item})

	if prev != nil {
		<-prev
	}
	// Never a caller's ctx (context.WithoutCancel of one, should Publish ever
	// take it): an announce cut short leaves the record's holders half
	// updated, and nothing sends the rest.
	return n.announce(context.Background(), deltas)
}

// announce ships one publish's deltas: each level's in kernel order, the
// levels at once (one after the other for the serial coordinator). A holder
// applies a delta last-writer-wins and in arrival order, so two deltas of one
// level must not race; two of different levels touch different stores. Every
// level runs to its own end, failed or not, so the error is the lowest failing
// level's whatever the schedule.
func (n *Node) announce(ctx context.Context, deltas []core.StreamDelta) error {
	byLevel := make([][]core.StreamDelta, n.cfg.Levels)
	for _, d := range deltas {
		byLevel[d.Level] = append(byLevel[d.Level], d)
	}
	errs := make([]error, len(byLevel))
	parallel.Fan(len(byLevel), n.tuning.fan(levelFanout), func(l int) {
		for _, d := range byLevel[l] {
			if err := n.announceDelta(ctx, d); err != nil {
				errs[l] = fmt.Errorf("node: announcing stream delta (level %d, seq %d): %w", d.Level, d.Rec.Seq, err)
				break
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// announceDelta ships one record delta: route to the owner of the record's
// key, each hop a store_rec that applies only if the node it reaches owns the
// key, then — for sphere records — flood the sphere applying at every holder
// it reaches, up to α holders at once. The owner is contacted once, and the
// hop that reaches it is the write. Holders that die mid-flood are skipped,
// like replication drops in the simulator.
func (n *Node) announceDelta(ctx context.Context, d core.StreamDelta) error {
	key, radius := d.Rec.Entry.Key, d.Rec.Entry.Radius
	start, err := n.applyRec(ctx, d, n.peer, true)
	if err != nil {
		return err
	}
	r := route.NewRouter(start, key, n.hopLimit())
	for {
		step, err := r.Next()
		if err != nil {
			return fmt.Errorf("routing to owner of %v: %w", key, err)
		}
		if step.Kind == route.StepDone {
			break
		}
		v, err := n.applyRec(ctx, d, step.To, true)
		if err != nil {
			return err
		}
		r.Feed(v, 1)
	}
	if radius <= 0 {
		return nil
	}
	f := route.NewFlood(r.Owner(), key, radius)
	return route.RunFlood(f, func(step route.Step) (route.NodeView, bool, error) {
		v, err := n.applyRec(ctx, d, step.To, false)
		if errors.Is(err, transport.ErrUnavailable) {
			return v, true, nil // holder died mid-flood; its copy goes with it
		}
		return v, false, err
	}, n.tuning.fan(lookupAlpha))
}

// applyRec applies one delta at node id — locally when id is this node, via
// a store_rec RPC otherwise — as the owner if and only if id owns the key
// (toOwner: a routing hop), or as a replica (a flood visit), and returns the
// zones/neighbors view id applied it against.
func (n *Node) applyRec(ctx context.Context, d core.StreamDelta, id int, toOwner bool) (route.NodeView, error) {
	req := membership.StoreRecReq{Level: d.Level, Del: d.Del, AsOwner: toOwner, Rec: d.Rec}
	if id == n.peer {
		v, err := n.mgr.StoreRecord(req)
		if err != nil {
			return route.NodeView{}, err
		}
		return n.toNodeView(searchView{ID: v.ID, Zones: v.Zones, Neighbors: v.Neighbors}), nil
	}
	addr, err := n.peerAddr(id)
	if err != nil {
		return route.NodeView{}, err
	}
	body := transport.Encode(&req, membership.WalkStoreRecReq)
	n.count(ctrStreamRec)
	resp, err := n.client.Call(ctx, addr, transport.Request{Method: membership.MethodStoreRec, Body: body})
	if err != nil {
		return route.NodeView{}, err
	}
	v, err := transport.Decode(resp.Body, membership.WalkStoreRecResp)
	sv := searchView{ID: v.ID, Zones: v.Zones, Neighbors: v.Neighbors}
	if err == nil {
		err = checkView(d.Level, sv)
	}
	if err != nil {
		return route.NodeView{}, err
	}
	return n.toNodeView(sv), nil
}
