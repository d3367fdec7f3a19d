package membership

import (
	"context"
	"sort"
	"time"

	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Records: m.store_rec applies one streamed record delta to a holder, and
// after a crash takeover the taker republishes the records around each
// claimed zone from what the surviving holders still store.
//
// Invariant: a holder's owned and replica stores equal the simulator node's
// after the same deltas and the same takeovers — both sides run the shared
// route.UpsertRecord / DeleteRecord and route.ApplyRecovery, and a recovery
// merges a seq-sorted, deduplicated batch, as the oracle's global scan does.

// ApplyRecord applies one streamed record delta to this node's level state
// through the shared rules (route.UpsertRecord/DeleteRecord), so the records
// a live holder ends up with are byte-identical to the simulator node the
// same delta sequence reached. A record whose key is not of the level's
// dimension is refused (checkDims). The churn epoch holds: record churn is
// not membership churn, which is why coordinators keep no answer memo under
// streaming publish (see node.Tuning.StreamPublish).
func (m *Manager) ApplyRecord(level int, asOwner, del bool, rec route.RecordView) error {
	if err := m.checkLevel(level); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := &m.levels[level]
	if err := checkDims(ls, []route.Zone{point(rec.Entry.Key)}); err != nil {
		return err
	}
	if del {
		ls.Owned, ls.Replicas, _ = route.DeleteRecord(ls.Owned, ls.Replicas, rec.Seq)
	} else {
		ls.Owned, ls.Replicas = route.UpsertRecord(ls.Owned, ls.Replicas, rec, asOwner)
	}
	return nil
}

// handleStoreRec serves one streamed record delta and acknowledges with this
// node's zones and neighbor table — the view the publisher's flood machine
// expands through.
func (m *Manager) handleStoreRec(req StoreRecReq) ([]byte, error) {
	if err := m.ApplyRecord(req.Level, req.AsOwner, req.Del, req.Rec); err != nil {
		return nil, err
	}
	m.mu.RLock()
	resp := StoreRecResp{
		ID:        m.self,
		Zones:     cloneZones(m.levels[req.Level].Zones),
		Neighbors: cloneNeighbors(m.levels[req.Level].Neighbors),
	}
	m.mu.RUnlock()
	return transport.Encode(&resp, WalkStoreRecResp), nil
}

// recoveryPlan is one pending republish: after taking over zone at level,
// search the zone's circumsphere and merge what survives.
type recoveryPlan struct {
	level int
	zone  route.Zone
}

// runRecoveries executes the republisher for each claimed zone: search the
// zone's circumsphere (where every surviving replica of an affected record
// must live) and merge the finds — the shared route.ApplyRecovery, on the
// same seq-sorted batch the oracle's global scan produces. The recovering
// counter was raised by declareDeadLocked; this drains it.
func (m *Manager) runRecoveries(plans []recoveryPlan) {
	for _, p := range plans {
		m.recoverZone(p)
		m.mu.Lock()
		m.recovering--
		m.mu.Unlock()
	}
}

func (m *Manager) recoverZone(p recoveryPlan) {
	center, radius := p.zone.Circumsphere()
	var found []route.RecordView
	err := retry(context.Background(), 50*time.Millisecond, func() (bool, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var err error
		found, err = m.fabric.Collect(ctx, p.level, center, radius)
		return true, err
	})
	if err != nil {
		return // cluster too broken to recover right now; records stay lost
	}
	// Canonical batch: seq-sorted, deduplicated (Collect should already
	// guarantee this; enforce it so ApplyRecovery's contract always holds).
	sort.SliceStable(found, func(i, j int) bool { return found[i].Seq < found[j].Seq })
	dedup := found[:0]
	for i, rec := range found {
		if i > 0 && rec.Seq == found[i-1].Seq {
			continue
		}
		dedup = append(dedup, rec)
	}
	m.mu.Lock()
	ls := &m.levels[p.level]
	// Only merge if we still hold the zone (a conflict may have taken it).
	if route.ZonesContain(ls.Zones, zoneCenter(p.zone)) {
		ls.Owned, ls.Replicas, _ = route.ApplyRecovery(ls.Zones, p.zone, ls.Owned, ls.Replicas, dedup)
		m.bumpLocked()
	}
	m.mu.Unlock()
}
