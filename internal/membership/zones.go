package membership

import "hyperm/internal/transport"

// Zone news: m.zones tells a neighbor which peers departed (Removed) and
// which zones peers hold now (Updates); a node whose zones changed
// rebroadcasts its zone set to its whole table.
//
// Invariant: a node's table lists the alive peers whose zones adjoin its own,
// at the zones they last announced — id-sorted, each once, never the node
// itself, every zone of the level's dimension.

// handleZoneUpdate applies neighborhood news: removals mark departures;
// updates refresh or insert entries by adjacency.
func (m *Manager) handleZoneUpdate(upd ZoneUpdate) error {
	return m.apply(upd.Level, tableZones(upd.Updates), func(ls *LevelState) ([]outMsg, []recoveryPlan, error) {
		for _, id := range upd.Removed {
			m.forgetLocked(ls, id)
		}
		for _, u := range upd.Updates {
			m.adoptLocked(ls, u, true)
		}
		return nil, nil, nil
	})
}

// rebroadcastLocked builds zone-update messages announcing this node's
// current zone set (and any removals) to all its neighbors at one level.
func (m *Manager) rebroadcastLocked(level int, removed []int) []outMsg {
	ls := &m.levels[level]
	upd := ZoneUpdate{Level: level, Removed: removed, Updates: []Neighbor{
		{ID: m.self, Addr: m.selfAddr, Zones: cloneZones(ls.Zones)},
	}}
	return m.sendLocked(ls.Neighbors, nil, MethodZones, transport.Encode(&upd, walkZoneUpdate))
}
