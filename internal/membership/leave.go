package membership

import (
	"context"
	"fmt"

	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Graceful leave: a leaver hands each of its zones, level by level, to the
// alive neighbor route.ElectTakers names (m.handoff), then stops serving.
//
// Invariant: the takers' final zone sets tile what the leaver held, each
// owned record moves to the taker of the zone holding its centroid, and every
// neighbor of the leaver drops it — the takers on their handoff, which also
// hands them the leaver's table to inherit, the rest on one m.zones notice.

// Leave removes this node gracefully: per level, elect takers among the
// alive neighbors (the shared election), hand each taker its zones and the
// records that follow them, and notify the rest of the neighborhood. After
// Leave returns, the node serves no zone and should be stopped.
func (m *Manager) Leave(ctx context.Context) error {
	m.StopProbing()
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return fmt.Errorf("membership: node %d has already left", m.self)
	}
	var handoffs, notices []outMsg
	for l := range m.levels {
		ls := &m.levels[l]
		if len(ls.Zones) == 0 {
			continue
		}
		cands := candidates(ls.Neighbors, m.dead)
		tks, ok := route.ElectTakers(ls.Zones, cands)
		if !ok {
			m.mu.Unlock()
			return fmt.Errorf("membership: node %d has no alive neighbor to hand level-%d zones to", m.self, l)
		}
		assigns, finals := replayElection(ls.Zones, cands, tks)

		// The takers at their final zone sets, id-sorted, shared by the
		// handoffs and the notices.
		var takers []Neighbor
		for _, a := range assigns {
			takers = upsertNeighbor(takers, Neighbor{ID: a.Taker, Addr: m.book[a.Taker], Zones: finals[a.Taker]})
		}

		perTaker := map[int]*HandoffReq{}
		takerOrder := []int{}
		getReq := func(id int) *HandoffReq {
			h := perTaker[id]
			if h == nil {
				h = &HandoffReq{Level: l, Leaver: m.self, Neighbors: cloneNeighbors(ls.Neighbors), Takers: takers}
				perTaker[id] = h
				takerOrder = append(takerOrder, id)
			}
			return h
		}
		for _, a := range assigns {
			h := getReq(a.Taker)
			h.Assigns = append(h.Assigns, a.ZoneAssign)
		}
		// Owned records follow the zone that contains their centroid — the
		// post-takeover owner is that zone's taker, matching the oracle's
		// global owner scan. Replicas go to every taker whose final zones
		// intersect (the receiver dedups against what it already holds).
		for _, rec := range ls.Owned {
			for i, z := range ls.Zones {
				if z.Contains(rec.Entry.Key) {
					h := getReq(assigns[i].Taker)
					h.Owned = append(h.Owned, rec)
					break
				}
			}
		}
		for _, rec := range ls.Replicas {
			for _, id := range takerOrder {
				if route.ZonesIntersect(finals[id], rec.Entry.Key, rec.Entry.Radius) {
					h := perTaker[id]
					h.Replicas = append(h.Replicas, rec)
				}
			}
		}
		for _, id := range takerOrder {
			body := transport.Encode(perTaker[id], walkHandoffReq)
			handoffs = append(handoffs, outMsg{addr: m.book[id], method: MethodHandoff, body: body})
		}

		upd := ZoneUpdate{Level: l, Removed: []int{m.self}, Updates: takers}
		notices = append(notices, m.sendLocked(ls.Neighbors, takers, MethodZones, transport.Encode(&upd, walkZoneUpdate))...)
	}
	m.left = true
	m.mu.Unlock()

	for _, h := range handoffs {
		if _, err := m.fabric.Call(ctx, h.addr, h.method, h.body); err != nil {
			return fmt.Errorf("membership: handoff to %s: %w", h.addr, err)
		}
	}
	m.sendAll(notices)

	m.mu.Lock()
	for l := range m.levels {
		m.levels[l] = LevelState{}
	}
	m.bumpLocked()
	m.mu.Unlock()
	return nil
}

// handleHandoff serves m.handoff as an elected taker: apply the zone
// assignments, absorb the records, inherit the leaver's neighborhood, and
// rebroadcast this node's grown zone set to its own neighbors.
func (m *Manager) handleHandoff(req HandoffReq) error {
	zones := tableZones(req.Neighbors, req.Takers)
	for _, a := range req.Assigns {
		zones = append(zones, a.Zone)
		if a.Merge {
			zones = append(zones, a.MergeWith)
		}
	}
	for _, recs := range [][]route.RecordView{req.Owned, req.Replicas} {
		for _, rec := range recs {
			zones = append(zones, point(rec.Entry.Key))
		}
	}
	return m.apply(req.Level, zones, func(ls *LevelState) ([]outMsg, []recoveryPlan, error) {
		for _, a := range req.Assigns {
			ls.Zones = annex(ls.Zones, a)
		}
		// Records: owned transfers are unconditional (the leaver's owner scan
		// already decided ownership — mirroring the oracle, which appends even
		// when the taker holds a replica of the same seq); replicas dedup
		// against what this node already holds and re-check overlap against
		// the actual post-takeover zones.
		ls.Owned = append(ls.Owned, req.Owned...)
		for _, rec := range req.Replicas {
			if route.ZonesIntersect(ls.Zones, rec.Entry.Key, rec.Entry.Radius) && !ls.holds(rec.Seq) {
				ls.Replicas = append(ls.Replicas, rec)
			}
		}
		m.forgetLocked(ls, req.Leaver)
		finals := map[int][]route.Zone{}
		for _, t := range req.Takers {
			finals[t.ID] = t.Zones
		}
		m.inheritLocked(ls, req.Neighbors, finals)
		return m.rebroadcastLocked(req.Level, []int{req.Leaver}), nil, nil
	})
}
