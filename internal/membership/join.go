package membership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Join: a joiner takes, at each level, the half of one zone that holds its
// join point from that zone's owner (m.join).
//
// Invariant: the two halves tile the zone that was split (route.SplitZone),
// the owner's records divide between them by route.SplitRecords, and every
// peer adjacent to either half learns both new zone sets — the owner's old
// neighbors from one m.zones notice, the joiner from its grant.

// Join brings a fresh node into a running cluster: for each level, route the
// join point to its current owner (starting at the bootstrap address) and ask
// the owner to split. Stale routing during churn surfaces as a not-owner
// refusal and is retried.
func (m *Manager) Join(ctx context.Context, bootstrap string, points [][]float64) error {
	if len(points) != len(m.levels) {
		return fmt.Errorf("membership: %d join points for %d levels", len(points), len(m.levels))
	}
	m.mu.RLock()
	selfAddr := m.selfAddr
	m.mu.RUnlock()
	if selfAddr == "" {
		return fmt.Errorf("membership: node %d has no serving address yet", m.self)
	}
	for l, p := range points {
		body := transport.Encode(&JoinReq{Level: l, Joiner: m.self, Addr: selfAddr, Point: p}, walkJoinReq)
		err := retry(ctx, 25*time.Millisecond, func() (bool, error) {
			_, ownerAddr, err := m.fabric.RouteOwner(ctx, l, bootstrap, p)
			if err != nil {
				return true, err
			}
			resp, err := m.fabric.Call(ctx, ownerAddr, MethodJoin, body)
			if err != nil {
				// A not-owner refusal means routing raced a zone change: re-route.
				return transport.ErrorDetail(err) == DetailNotOwner || errors.Is(err, transport.ErrUnavailable), err
			}
			grant, err := transport.Decode(resp, walkJoinGrant)
			if err == nil {
				err = m.installGrant(l, grant, len(p))
			}
			return false, err
		})
		if err != nil {
			return fmt.Errorf("membership: join level %d: %w", l, err)
		}
	}
	return nil
}

// installGrant takes the joiner's state at level from the owner's grant,
// refused unless it is all of the join point's dimension (CheckView).
func (m *Manager) installGrant(level int, g JoinGrant, dim int) error {
	if err := CheckView(dim, g.Zones, g.Neighbors, g.Owned, g.Replicas); err != nil {
		return err
	}
	m.mu.Lock()
	ls := &m.levels[level]
	ls.Zones = g.Zones
	ls.Neighbors = g.Neighbors
	ls.Owned = g.Owned
	ls.Replicas = g.Replicas
	if g.Size > m.size {
		m.size = g.Size
	}
	for _, be := range g.Book {
		m.learnLocked(be.ID, be.Addr)
	}
	for _, nb := range ls.Neighbors {
		m.learnLocked(nb.ID, nb.Addr)
	}
	m.bumpLocked()
	m.mu.Unlock()
	return nil
}

// handleJoin serves m.join as the owner: split the zone containing the
// point, hand the taken half (and the records that follow it) to the joiner,
// and notify the old neighborhood of both new zone sets.
func (m *Manager) handleJoin(req JoinReq) ([]byte, error) {
	var grant JoinGrant
	err := m.apply(req.Level, []route.Zone{point(req.Point)}, func(ls *LevelState) ([]outMsg, []recoveryPlan, error) {
		zi := -1
		for i, z := range ls.Zones {
			if z.Contains(req.Point) {
				zi = i
				break
			}
		}
		if zi < 0 {
			return nil, nil, transport.WithDetail(
				fmt.Errorf("membership: node %d does not own point %v at level %d", m.self, req.Point, req.Level),
				DetailNotOwner)
		}
		if req.Joiner == m.self {
			return nil, nil, fmt.Errorf("membership: node %d cannot admit a joiner with its own id", m.self)
		}

		// Split geometry and record redistribution are the shared helpers' —
		// the exact code the simulator oracle runs.
		kept, taken, err := route.SplitZone(ls.Zones[zi], req.Point)
		if err != nil {
			return nil, nil, transport.WithDetail(
				fmt.Errorf("membership: node %d cannot split %v for a join at %v: %w", m.self, ls.Zones[zi], req.Point, err),
				route.DetailZoneTooSmall)
		}
		newZones := cloneZones(ls.Zones)
		newZones[zi] = kept
		joinerZones := []route.Zone{taken}
		oo, or, jo, jr := route.SplitRecords(ls.Owned, ls.Replicas, newZones, joinerZones)

		// The joiner's neighborhood: every node adjacent to the taken half was
		// adjacent to the pre-split zone, so the owner's table (plus the owner
		// itself) covers it. The owner's new table: old entries still
		// adjacent, plus the joiner. Lists stay sorted by construction.
		old := ls.Neighbors
		jnb := upsertNeighbor(adjacentTo(joinerZones, old), Neighbor{ID: m.self, Addr: m.selfAddr, Zones: newZones})
		onb := upsertNeighbor(adjacentTo(newZones, old), Neighbor{ID: req.Joiner, Addr: req.Addr, Zones: joinerZones})
		ls.Zones, ls.Neighbors, ls.Owned, ls.Replicas = newZones, onb, oo, or
		m.learnLocked(req.Joiner, req.Addr)

		book := make([]BookEntry, 0, len(m.book))
		for id, a := range m.book {
			book = append(book, BookEntry{ID: id, Addr: a})
		}
		sort.Slice(book, func(i, j int) bool { return book[i].ID < book[j].ID })
		grant = JoinGrant{Zones: joinerZones, Neighbors: jnb, Owned: jo, Replicas: jr, Size: m.size, Book: book}

		// Notices to the old neighborhood: the owner shrank, the joiner appeared.
		upd := ZoneUpdate{Level: req.Level, Updates: []Neighbor{
			{ID: m.self, Addr: m.selfAddr, Zones: newZones},
			{ID: req.Joiner, Addr: req.Addr, Zones: joinerZones},
		}}
		return m.sendLocked(old, upd.Updates, MethodZones, transport.Encode(&upd, walkZoneUpdate)), nil, nil
	})
	if err != nil {
		return nil, err
	}
	return transport.Encode(&grant, walkJoinGrant), nil
}
