package membership

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Crash: a neighbor that fails FailAfter consecutive probes (m.ping) is
// declared dead. Every detector elects takers from the dead node's last
// self-reported table, so all reach the same election; each elected taker
// claims its zones, announces them (m.takeover) and republishes what the
// dead node held (records.go).
//
// Invariant: no zone is owned twice outside the window in which two
// claimants' announcements cross — of two nodes that claimed one zone, the
// lower id keeps it and the other restores its pre-claim zones and refilters
// its records.

// StartProbing launches the liveness probe loop (no-op when disabled).
func (m *Manager) StartProbing() {
	if m.opts.ProbeInterval <= 0 {
		return
	}
	m.probeMu.Lock()
	defer m.probeMu.Unlock()
	if m.probeStop != nil {
		return
	}
	ctx, stop := context.WithCancel(context.Background())
	m.probeStop = stop
	m.probeWG.Add(1)
	go func() {
		defer m.probeWG.Done()
		ticker := time.NewTicker(m.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				m.probeOnce(ctx)
			}
		}
	}()
}

// StopProbing halts the probe loop, cutting short the pings of the round in
// flight, and waits for that round. Idempotent.
func (m *Manager) StopProbing() {
	m.probeMu.Lock()
	stop := m.probeStop
	m.probeStop = nil
	m.probeMu.Unlock()
	if stop == nil {
		return
	}
	stop()
	m.probeWG.Wait()
}

// probeOnce pings every current neighbor (union across levels) once, in
// parallel, and feeds the results into the failure detector. A ping that
// fails because ctx ended says nothing about the neighbor and is not fed.
func (m *Manager) probeOnce(ctx context.Context) {
	m.mu.RLock()
	if m.left {
		m.mu.RUnlock()
		return
	}
	var targets []Neighbor // id-sorted, each once
	for l := range m.levels {
		for _, nb := range m.levels[l].Neighbors {
			if nb.ID != m.self && !m.dead[nb.ID] && nb.Addr != "" && findNeighbor(targets, nb.ID) < 0 {
				targets = upsertNeighbor(targets, Neighbor{ID: nb.ID, Addr: nb.Addr})
			}
		}
	}
	selfAddr := m.selfAddr
	m.mu.RUnlock()

	body := transport.Encode(&PingReq{From: m.self, Addr: selfAddr}, walkPingReq)
	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg Neighbor) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, m.opts.ProbeTimeout)
			defer cancel()
			resp, err := m.fabric.Call(cctx, tg.Addr, MethodPing, body)
			if err != nil && ctx.Err() != nil {
				return // the loop is stopping, not the neighbor
			}
			var tables []LevelTable
			if err == nil {
				tables, err = transport.Decode(resp, walkPingResp)
			}
			m.noteProbe(tg.ID, tables, err)
		}(tg)
	}
	wg.Wait()
}

// handlePing answers a liveness probe with this node's per-level state
// snapshot (the detector's election input).
func (m *Manager) handlePing(req PingReq) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.leftErr(); err != nil {
		return nil, err
	}
	m.learnLocked(req.From, req.Addr)
	tables := make([]LevelTable, len(m.levels))
	for l := range m.levels {
		tables[l] = LevelTable{
			Zones:     cloneZones(m.levels[l].Zones),
			Neighbors: cloneNeighbors(m.levels[l].Neighbors),
		}
	}
	return transport.Encode(&tables, walkPingResp), nil
}

// noteProbe feeds one probe outcome into the failure detector. A remote
// (application-level) error still proves the peer alive, and so does a
// self-report that fails checkDims (the previous one is kept). FailAfter
// consecutive failures declare the peer dead and trigger the takeover.
func (m *Manager) noteProbe(id int, tables []LevelTable, err error) {
	var re *transport.RemoteError
	alive := err == nil || errors.As(err, &re)
	m.mu.Lock()
	if m.left || m.dead[id] {
		m.mu.Unlock()
		return
	}
	if alive {
		m.fails[id] = 0
		if err == nil && m.tablesFitLocked(tables) {
			// Probing doubles as churn observation: a neighbor whose
			// self-report changed since the last round mutated (someone
			// joined, left, or crashed near it), so any view cached from it
			// — or from nodes it reported on — must revalidate. This extends
			// epoch coverage beyond the protocol messages this node receives
			// directly, to everything its probe horizon can see.
			if prev, ok := m.tables[id]; ok {
				for l := 0; l < len(m.levels); l++ {
					if !levelTableEqual(tableAt(prev, l), tableAt(tables, l)) {
						m.bumpLocked(l)
					}
				}
			}
			m.tables[id] = tables
		}
		m.mu.Unlock()
		return
	}
	m.fails[id]++
	if m.fails[id] < m.opts.FailAfter {
		m.mu.Unlock()
		return
	}
	outs, plans := m.declareDeadLocked(id)
	m.mu.Unlock()
	m.sendAll(outs)
	go m.runRecoveries(plans)
}

// tablesFitLocked reports whether every level of a self-report passes
// checkDims: the crash election annexes its zones and adopts its neighbors.
func (m *Manager) tablesFitLocked(tables []LevelTable) bool {
	for l := 0; l < len(m.levels) && l < len(tables); l++ {
		if checkDims(&m.levels[l], append(tableZones(tables[l].Neighbors), tables[l].Zones...)) != nil {
			return false
		}
	}
	return true
}

// declareDeadLocked runs the crash takeover for peer c: per level, elect
// takers from c's last self-reported table (so every detector that probed c
// reaches the same election), rewire this node's own table, and — when this
// node is a taker — claim the zones, plan their republishes, and announce the
// claims to both neighborhoods.
func (m *Manager) declareDeadLocked(c int) ([]outMsg, []recoveryPlan) {
	table := m.forgetLocked(nil, c)
	var outs []outMsg
	var plans []recoveryPlan
	for l := range m.levels {
		ls := &m.levels[l]
		idx := findNeighbor(ls.Neighbors, c)
		if idx < 0 {
			continue
		}
		// Every branch below mutates this level (at minimum the crashed
		// neighbor is dropped), so the takeover is one churn event here.
		m.bumpLocked(l)
		czones := ls.Neighbors[idx].Zones
		ls.Neighbors = removeNeighbor(ls.Neighbors, c)
		ct := tableAt(table, l)
		if len(ct.Zones) > 0 {
			czones = ct.Zones
		}
		cnbs := ct.Neighbors
		if len(cnbs) == 0 {
			// Never heard a ping from c: fall back to local knowledge — c's
			// neighbors we also neighbor, plus ourselves. Divergent detectors
			// are reconciled by the takeover conflict rule.
			cnbs = upsertNeighbor(adjacentTo(czones, ls.Neighbors), Neighbor{ID: m.self, Addr: m.selfAddr, Zones: cloneZones(ls.Zones)})
		}
		cands := candidates(cnbs, m.dead)
		tks, ok := route.ElectTakers(czones, cands)
		if !ok {
			continue
		}
		assigns, finals := replayElection(czones, cands, tks)

		// Apply our own claims first, snapshotting for conflict rollback.
		var claimed []route.Zone
		for _, a := range assigns {
			if a.Taker == m.self {
				m.claims[claimKey(l, a.Zone)] = cloneZones(ls.Zones)
				ls.Zones = annex(ls.Zones, a.ZoneAssign)
				claimed = append(claimed, a.Zone)
				plans = append(plans, recoveryPlan{level: l, zone: a.Zone})
			}
		}
		m.inheritLocked(ls, cnbs, finals)
		// Announce each claim to c's neighborhood and our own.
		for _, z := range claimed {
			body := transport.Encode(&TakeoverMsg{
				Level: l, Crashed: c, Zone: z,
				Taker: m.self, TakerAddr: m.selfAddr, TakerZones: cloneZones(ls.Zones),
			}, walkTakeoverMsg)
			outs = append(outs, m.sendLocked(append(cloneNeighbors(cnbs), ls.Neighbors...), nil, MethodTakeover, body)...)
		}
	}
	// The counter is raised under the lock that records the claims, so Busy
	// never reads false between a takeover and its republish.
	m.recovering += len(plans)
	return outs, plans
}

func claimKey(level int, z route.Zone) string {
	return fmt.Sprintf("%d:%v", level, z)
}

// handleTakeover applies a claim announcement: mark the crashed node dead,
// update the taker's entry, and resolve double-claims (two detectors electing
// themselves from divergent knowledge) in favor of the lower node id.
//
// First news of a crash also triggers this node's own election pass: when the
// crashed node held several zones with different elected takers, each taker
// must claim its own zone even if another taker's announcement arrives before
// its own detector fires — otherwise the remaining zones would be orphaned.
func (m *Manager) handleTakeover(msg TakeoverMsg) error {
	zones := append([]route.Zone{msg.Zone}, msg.TakerZones...)
	return m.apply(msg.Level, zones, func(ls *LevelState) ([]outMsg, []recoveryPlan, error) {
		var outs []outMsg
		var plans []recoveryPlan
		if !m.dead[msg.Crashed] {
			outs, plans = m.declareDeadLocked(msg.Crashed)
		}
		m.forgetLocked(ls, msg.Crashed)
		ck := claimKey(msg.Level, msg.Zone)
		if prev, ok := m.claims[ck]; ok && msg.Taker != m.self && route.ZonesContain(ls.Zones, zoneCenter(msg.Zone)) {
			if msg.Taker > m.self {
				// Won: keep the zone; the sender relinquishes when our own
				// announcement reaches it. Don't adopt its claimed zone set.
				return outs, plans, nil
			}
			// Lost the conflict: restore the pre-claim zone set, refilter
			// records against it, tell the neighborhood. A pending republish
			// for the zone self-cancels (recoverZone re-checks ownership
			// before merging).
			ls.Zones = prev
			refilterRecords(ls)
			delete(m.claims, ck)
			outs = append(outs, m.rebroadcastLocked(msg.Level, nil)...)
		}
		m.adoptLocked(ls, Neighbor{ID: msg.Taker, Addr: msg.TakerAddr, Zones: msg.TakerZones}, true)
		return outs, plans, nil
	})
}

// refilterRecords re-derives a level's stores after its zone set shrank
// (conflict rollback): owned records keep ownership while their centroid
// stays inside, demote to replicas while their sphere still overlaps, and
// drop otherwise; replicas drop when their sphere no longer overlaps.
func refilterRecords(ls *LevelState) {
	var owned, demoted []route.RecordView
	for _, rec := range ls.Owned {
		switch {
		case route.ZonesContain(ls.Zones, rec.Entry.Key):
			owned = append(owned, rec)
		case route.ZonesIntersect(ls.Zones, rec.Entry.Key, rec.Entry.Radius):
			demoted = append(demoted, rec)
		}
	}
	var replicas []route.RecordView
	for _, rec := range ls.Replicas {
		if route.ZonesIntersect(ls.Zones, rec.Entry.Key, rec.Entry.Radius) {
			replicas = append(replicas, rec)
		}
	}
	ls.Owned = owned
	ls.Replicas = append(replicas, demoted...)
}
