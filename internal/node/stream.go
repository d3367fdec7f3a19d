package node

import (
	"context"
	"errors"
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// This file is the live half of streaming incremental publish (the simulator
// half is core.System.StreamInsert). A streamed Publish runs the shared
// kernel (core.StreamPublisher) against this node's published summaries and
// announces each resulting record delta peer-to-peer: greedy-route to the
// record's owner, apply there, then flood the record's sphere applying at
// every reached holder — the exact visit pattern of can.Overlay.streamOp,
// driven by the same route machines over store_rec RPC views, so both
// substrates' record stores stay byte-identical.

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
	ctx := context.Background()
	for _, d := range deltas {
		if err := n.announceDelta(ctx, d); err != nil {
			return fmt.Errorf("node: announcing stream delta (level %d, seq %d): %w", d.Level, d.Rec.Seq, err)
		}
	}
	return nil
}

// announceDelta ships one record delta: route to the owner of the record's
// key, apply there (as owner), then — for sphere records — flood the sphere
// applying at every holder it reaches. Holders that die mid-flood are
// skipped, like replication drops in the simulator.
func (n *Node) announceDelta(ctx context.Context, d core.StreamDelta) error {
	key, radius := d.Rec.Entry.Key, d.Rec.Entry.Radius
	src := n.sphereViews(ctx, d.Level, key, 0)
	start, err := src.View(n.peer)
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
		v, err := src.View(step.To)
		if err != nil {
			return err
		}
		r.Feed(v, 1)
	}
	ownerView, err := n.applyRec(ctx, d, r.Owner().ID, true)
	if err != nil {
		return err
	}
	if radius <= 0 {
		return nil
	}
	f := route.NewFlood(ownerView, key, radius)
	for {
		step := f.Next()
		if step.Kind == route.StepDone {
			return nil
		}
		v, err := n.applyRec(ctx, d, step.To, false)
		if err != nil {
			if errors.Is(err, transport.ErrUnavailable) {
				f.Skip() // holder died mid-flood; its copy goes with it
				continue
			}
			return err
		}
		f.Feed(v)
	}
}

// applyRec applies one delta at node id — locally when id is this node,
// via a store_rec RPC otherwise — and returns the holder's zones/neighbors
// view for flood expansion.
func (n *Node) applyRec(ctx context.Context, d core.StreamDelta, id int, asOwner bool) (route.NodeView, error) {
	if id == n.peer {
		if err := n.mgr.ApplyRecord(d.Level, asOwner, d.Del, d.Rec); err != nil {
			return route.NodeView{}, err
		}
		zones, nbs, _, _, _ := n.mgr.SearchView(d.Level, func(route.RecordView) bool { return false })
		return n.toNodeView(searchView{ID: n.peer, Zones: zones, Neighbors: nbs}), nil
	}
	addr, err := n.peerAddr(id)
	if err != nil {
		return route.NodeView{}, err
	}
	body := transport.Encode(&membership.StoreRecReq{
		Level: d.Level, Del: d.Del, AsOwner: asOwner, Rec: d.Rec,
	}, membership.WalkStoreRecReq)
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
