package membership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// Fabric is the manager's view of the network, implemented by the node
// daemon. The manager decides *what* to say; the fabric knows how to reach
// peers and how to run overlay searches.
type Fabric interface {
	// Call performs one membership RPC against addr and returns the response
	// body. Transport faults come back wrapped in transport.ErrUnavailable;
	// handler refusals as *transport.RemoteError.
	Call(ctx context.Context, addr, method string, body []byte) ([]byte, error)
	// Collect runs a sphere search at level and returns every reachable
	// record intersecting the sphere, deduplicated by seq and seq-sorted —
	// the live equivalent of the simulator's global recovery scan.
	Collect(ctx context.Context, level int, key []float64, radius float64) ([]route.RecordView, error)
	// RouteOwner greedily routes from the bootstrap address to the owner of
	// key at level, returning the owner's id and address.
	RouteOwner(ctx context.Context, level int, bootstrap string, key []float64) (id int, addr string, err error)
}

// Options tunes the liveness protocol. The zero value disables probing
// entirely (join/leave/handoff RPCs still work), which is what the static
// oracle tests use.
type Options struct {
	// ProbeInterval is the pause between probe rounds; <= 0 disables the
	// probe loop.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each ping RPC. Default 250ms.
	ProbeTimeout time.Duration
	// FailAfter is the number of consecutive probe failures that declare a
	// neighbor dead. Default 3.
	FailAfter int
}

func (o Options) withDefaults() Options {
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 250 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	return o
}

// claim snapshots a node's zone set just before it claims a crashed
// neighbor's zone, so a lost takeover conflict (two detectors electing
// themselves from divergent views) can be rolled back: the lower-id claimant
// keeps the zone, the other restores its snapshot and refilters its records.
type claim struct {
	level     int
	zone      route.Zone
	prevZones []route.Zone
}

// outMsg is one protocol message computed under the lock and sent after it
// is released — the manager never performs network I/O while locked.
type outMsg struct {
	addr   string
	method string
	body   []byte
}

// recoveryPlan is one pending republish: after taking over zone at level,
// search the zone's circumsphere and merge what survives.
type recoveryPlan struct {
	level int
	zone  route.Zone
}

// Manager runs the membership protocol for one node: it owns the node's
// per-level zone/neighbor/record state, serves the membership RPCs, and —
// when probing is enabled — detects crashed neighbors and takes their zones
// over. Safe for concurrent use.
type Manager struct {
	self   int
	fabric Fabric
	opts   Options

	mu       sync.RWMutex
	selfAddr string
	levels   []LevelState
	book     map[int]string
	size     int
	left     bool
	// dead marks peers known to have departed (leave notice, takeover
	// announcement, or local detection); they are never probed or elected.
	dead map[int]bool
	// fails counts consecutive probe failures per neighbor.
	fails map[int]int
	// tables caches each probed neighbor's last self-reported state; crash
	// elections run on the crashed node's own table so every detector
	// reaches the same result.
	tables map[int][]LevelTable
	// claims indexes this node's recent zone claims for conflict rollback.
	claims map[string]claim
	// recovering counts in-flight post-takeover republishes (Busy).
	recovering int
	// epochs[l] counts the level-l churn events this node has observed
	// (its own mutations plus neighbor-table changes seen in probe
	// responses); a coordinator's lookup memo and fetch cache trust an entry
	// only within the epoch it was recorded at. epochSum is their sum, kept
	// beside them so "did anything happen at any level" is one atomic load.
	epochs   []uint64
	epochSum atomic.Uint64

	probeMu   sync.Mutex
	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// NewManager builds a manager for node self. levels is the node's bootstrap
// state (one entry per CAN level — empty LevelStates for a fresh joiner);
// size is the cluster size as currently known (max node id + 1).
func NewManager(self, size int, levels []LevelState, fabric Fabric, opts Options) *Manager {
	if size < self+1 {
		size = self + 1
	}
	m := &Manager{
		self:   self,
		fabric: fabric,
		opts:   opts.withDefaults(),
		levels: make([]LevelState, len(levels)),
		book:   map[int]string{},
		size:   size,
		dead:   map[int]bool{},
		fails:  map[int]int{},
		tables: map[int][]LevelTable{},
		claims: map[string]claim{},
		epochs: make([]uint64, len(levels)),
	}
	if opts.ProbeInterval <= 0 {
		m.opts.ProbeInterval = 0
	}
	for i := range levels {
		m.levels[i] = levels[i].Clone()
	}
	return m
}

// Self returns the node id.
func (m *Manager) Self() int { return m.self }

// NumLevels returns the number of CAN levels.
func (m *Manager) NumLevels() int { return len(m.levels) }

// Size returns the cluster size as currently known (max node id seen + 1) —
// the routing hop limit's input, mirroring the simulator's len(nodes).
func (m *Manager) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// SetSelfAddr installs this node's serving address (known after its server
// starts).
func (m *Manager) SetSelfAddr(addr string) {
	m.mu.Lock()
	m.selfAddr = addr
	m.book[m.self] = addr
	m.mu.Unlock()
}

// SeedBook installs the positional address book (addrs[p] = peer p's
// address) and fills the neighbor-table addresses — the static-cluster
// bootstrap path (Cluster.SetPeers).
func (m *Manager) SeedBook(addrs []string) {
	m.mu.Lock()
	for p, a := range addrs {
		if a != "" {
			m.book[p] = a
		}
	}
	if len(addrs) > m.size {
		m.size = len(addrs)
	}
	m.refreshNeighborAddrsLocked()
	m.mu.Unlock()
}

// LearnAddr records one peer's address (from a view or message that carried
// it).
func (m *Manager) LearnAddr(id int, addr string) {
	if addr == "" {
		return
	}
	m.mu.Lock()
	m.learnLocked(id, addr)
	m.mu.Unlock()
}

func (m *Manager) learnLocked(id int, addr string) {
	if addr != "" {
		m.book[id] = addr
	}
	if id >= m.size {
		m.size = id + 1
	}
}

func (m *Manager) refreshNeighborAddrsLocked() {
	for l := range m.levels {
		ns := m.levels[l].Neighbors
		for i := range ns {
			if a, ok := m.book[ns[i].ID]; ok && ns[i].Addr == "" {
				ns[i].Addr = a
			}
		}
	}
}

// Addr returns peer id's address, if known.
func (m *Manager) Addr(id int) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if a, ok := m.book[id]; ok && a != "" {
		return a, nil
	}
	return "", fmt.Errorf("membership: no known address for peer %d", id)
}

// View returns a read-safe copy of one level's state.
func (m *Manager) View(level int) LevelState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.levels[level].Clone()
}

// SearchView answers a can_search hop without cloning the full level state:
// zones and neighbors are shallow-copied and records are filtered under the
// read lock, keeping owned and replicas separate and in storage order — the
// hot serving path allocates record slices sized to the matches instead of
// copying every stored record per hop. match must not retain or mutate its
// argument's slices beyond the protocol's shared-read contract (see Clone).
// The fifth result is always 0; the slot stays only because bench/layers.go
// assigns five values (ROADMAP "Benchmark v2 (d)").
func (m *Manager) SearchView(level int, match func(route.RecordView) bool) (zones []route.Zone, nbs []Neighbor, owned, replicas []route.RecordView, _ uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ls := &m.levels[level]
	zones = cloneZones(ls.Zones)
	nbs = cloneNeighbors(ls.Neighbors)
	filter := func(rs []route.RecordView) []route.RecordView {
		var out []route.RecordView
		for _, r := range rs {
			if match(r) {
				if out == nil {
					// One allocation bounded by the store size, deferred until
					// a record actually matches (routing-phase hops match none).
					out = make([]route.RecordView, 0, len(rs))
				}
				out = append(out, r)
			}
		}
		return out
	}
	return zones, nbs, filter(ls.Owned), filter(ls.Replicas), 0
}

// ZonesIntersect reports whether the sphere (key, radius) touches a zone this
// node owns at level — the test a flood applies to a neighbor before claiming
// it, answered here from the node's own current zones.
func (m *Manager) ZonesIntersect(level int, key []float64, radius float64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return route.ZonesIntersect(m.levels[level].Zones, key, radius)
}

// Snapshot returns read-safe copies of every level.
func (m *Manager) Snapshot() []LevelState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]LevelState, len(m.levels))
	for i := range m.levels {
		out[i] = m.levels[i].Clone()
	}
	return out
}

// Table returns the cached self-reported state of a probed neighbor (nil if
// none), letting harnesses check detector knowledge freshness.
func (m *Manager) Table(id int) []LevelTable {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tables[id]
}

// IsDead reports whether this node believes peer id has departed.
func (m *Manager) IsDead(id int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dead[id]
}

// Left reports whether this node has gracefully left the overlay.
func (m *Manager) Left() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.left
}

// Busy reports whether a post-takeover republish is still in flight —
// quiescence checks wait for it.
func (m *Manager) Busy() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.recovering > 0
}

// Epoch returns this node's level-l churn epoch: a counter bumped on every
// membership event the node observes at that level — its own mutations and
// neighbor-table changes heard in probe responses. A coordinator reuses a
// memoized lookup only while the epoch it ran under is still current.
func (m *Manager) Epoch(level int) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epochs[level]
}

// bumpLocked records a level-l churn event this node observed — a mutation
// of its own zones, neighbor table or records by the membership protocol, or
// news of a neighbor's. Callers hold mu.
func (m *Manager) bumpLocked(level int) {
	m.epochs[level]++
	m.epochSum.Add(1)
}

// EpochSum returns the sum of the per-level churn epochs without taking the
// lock. Every epoch only grows, so the sum moves exactly when some level's
// epoch does: two equal readings bracket a span with no membership event at
// any level — the coordinator fetch cache's reset signal.
func (m *Manager) EpochSum() uint64 { return m.epochSum.Load() }

// ---- RPC dispatch ----

// HandleRPC serves one membership RPC (called by the node daemon's handler).
func (m *Manager) HandleRPC(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodJoin:
		req, err := decodeJoinReq(body)
		if err != nil {
			return nil, err
		}
		return m.handleJoin(req)
	case MethodHandoff:
		req, err := decodeHandoffReq(body)
		if err != nil {
			return nil, err
		}
		return nil, m.handleHandoff(req)
	case MethodPing:
		req, err := decodePingReq(body)
		if err != nil {
			return nil, err
		}
		return m.handlePing(req)
	case MethodTakeover:
		msg, err := decodeTakeoverMsg(body)
		if err != nil {
			return nil, err
		}
		return nil, m.handleTakeover(msg)
	case MethodZones:
		upd, err := decodeZoneUpdate(body)
		if err != nil {
			return nil, err
		}
		return nil, m.handleZoneUpdate(upd)
	case MethodStoreRec:
		req, err := DecodeStoreRecReq(body)
		if err != nil {
			return nil, err
		}
		return m.handleStoreRec(req)
	default:
		return nil, fmt.Errorf("membership: unknown method %q", method)
	}
}

func (m *Manager) checkLevel(level int) error {
	if level < 0 || level >= len(m.levels) {
		return fmt.Errorf("membership: no level %d", level)
	}
	return nil
}

// ---- m.store_rec (streaming incremental publish) ----

// ApplyRecord applies one streamed record delta to this node's level state
// through the shared rules (route.UpsertRecord/DeleteRecord), so the records
// a live holder ends up with are byte-identical to the simulator node the
// same delta sequence reached. The churn epoch holds: record churn is not
// membership churn, which is why coordinators keep no lookup memo under
// streaming publish (see node.Tuning.StreamPublish).
func (m *Manager) ApplyRecord(level int, asOwner, del bool, rec route.RecordView) error {
	if err := m.checkLevel(level); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := &m.levels[level]
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
	return EncodeStoreRecResp(resp), nil
}

// ---- join ----

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
		var lastErr error
		granted := false
		for attempt := 0; attempt < 8 && !granted; attempt++ {
			if attempt > 0 {
				select {
				case <-time.After(25 * time.Millisecond):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			_, ownerAddr, err := m.fabric.RouteOwner(ctx, l, bootstrap, p)
			if err != nil {
				lastErr = err
				continue
			}
			body := encodeJoinReq(JoinReq{Level: l, Joiner: m.self, Addr: selfAddr, Point: p})
			resp, err := m.fabric.Call(ctx, ownerAddr, MethodJoin, body)
			if err != nil {
				lastErr = err
				if transport.ErrorDetail(err) == DetailNotOwner || errors.Is(err, transport.ErrUnavailable) {
					continue // routing raced a zone change; re-route
				}
				return fmt.Errorf("membership: join level %d: %w", l, err)
			}
			grant, err := decodeJoinGrant(resp)
			if err != nil {
				return fmt.Errorf("membership: join level %d: %w", l, err)
			}
			m.installGrant(l, grant)
			granted = true
		}
		if !granted {
			return fmt.Errorf("membership: join level %d failed: %w", l, lastErr)
		}
	}
	return nil
}

func (m *Manager) installGrant(level int, g JoinGrant) {
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
	m.bumpLocked(level)
	m.mu.Unlock()
}

// handleJoin serves m.join as the owner: split the zone containing the
// point, hand the taken half (and the records that follow it) to the joiner,
// and notify the old neighborhood of both new zone sets.
func (m *Manager) handleJoin(req JoinReq) ([]byte, error) {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return nil, fmt.Errorf("membership: node %d has left the overlay", m.self)
	}
	if err := m.checkLevel(req.Level); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	ls := &m.levels[req.Level]
	// A point of another length is not in this level's key space; a short one
	// would index out of range in Contains.
	if len(ls.Zones) > 0 && len(req.Point) != len(ls.Zones[0].Lo) {
		m.mu.Unlock()
		return nil, fmt.Errorf("membership: join point of %d coordinates at level %d, want %d", len(req.Point), req.Level, len(ls.Zones[0].Lo))
	}
	zi := -1
	for i, z := range ls.Zones {
		if z.Contains(req.Point) {
			zi = i
			break
		}
	}
	if zi < 0 {
		m.mu.Unlock()
		return nil, transport.WithDetail(
			fmt.Errorf("membership: node %d does not own point %v at level %d", m.self, req.Point, req.Level),
			DetailNotOwner)
	}

	// Split geometry and record redistribution are the shared helpers' — the
	// exact code the simulator oracle runs.
	kept, taken, err := route.SplitZone(ls.Zones[zi], req.Point)
	if err != nil {
		m.mu.Unlock()
		return nil, transport.WithDetail(
			fmt.Errorf("membership: node %d cannot split %v for a join at %v: %w", m.self, ls.Zones[zi], req.Point, err),
			route.DetailZoneTooSmall)
	}
	newZones := cloneZones(ls.Zones)
	newZones[zi] = kept
	joinerZones := []route.Zone{taken}
	oo, or, jo, jr := route.SplitRecords(ls.Owned, ls.Replicas, newZones, joinerZones)

	// The joiner's neighborhood: every node adjacent to the taken half was
	// adjacent to the pre-split zone, so the owner's table (plus the owner
	// itself) covers it. Lists stay sorted by construction.
	var jnb []Neighbor
	oldNeighbors := cloneNeighbors(ls.Neighbors)
	for _, nb := range oldNeighbors {
		if route.ZoneSetsAdjacent(joinerZones, nb.Zones) {
			jnb = append(jnb, nb)
		}
	}
	jnb = upsertNeighbor(jnb, Neighbor{ID: m.self, Addr: m.selfAddr, Zones: newZones})

	// The owner's new table: old entries still adjacent, plus the joiner.
	var onb []Neighbor
	for _, nb := range oldNeighbors {
		if route.ZoneSetsAdjacent(newZones, nb.Zones) {
			onb = append(onb, nb)
		}
	}
	onb = upsertNeighbor(onb, Neighbor{ID: req.Joiner, Addr: req.Addr, Zones: joinerZones})

	ls.Zones, ls.Neighbors, ls.Owned, ls.Replicas = newZones, onb, oo, or
	m.learnLocked(req.Joiner, req.Addr)
	m.bumpLocked(req.Level)

	book := make([]BookEntry, 0, len(m.book))
	for id, a := range m.book {
		book = append(book, BookEntry{ID: id, Addr: a})
	}
	sort.Slice(book, func(i, j int) bool { return book[i].ID < book[j].ID })
	grant := JoinGrant{Zones: joinerZones, Neighbors: jnb, Owned: jo, Replicas: jr, Size: m.size, Book: book}

	// Notices to the old neighborhood: the owner shrank, the joiner appeared.
	upd := ZoneUpdate{Level: req.Level, Updates: []NodeZones{
		{ID: m.self, Addr: m.selfAddr, Zones: newZones},
		{ID: req.Joiner, Addr: req.Addr, Zones: joinerZones},
	}}
	var outs []outMsg
	body := encodeZoneUpdate(upd)
	for _, nb := range oldNeighbors {
		if nb.ID == req.Joiner || m.dead[nb.ID] {
			continue
		}
		outs = append(outs, outMsg{addr: nb.Addr, method: MethodZones, body: body})
	}
	m.mu.Unlock()

	m.sendAll(outs)
	return encodeJoinGrant(grant)
}

// ---- leave ----

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
	type plannedHandoff struct {
		addr string
		req  HandoffReq
	}
	var handoffs []plannedHandoff
	var notices []outMsg
	for l := range m.levels {
		ls := &m.levels[l]
		if len(ls.Zones) == 0 {
			continue
		}
		cands := candidates(ls.Neighbors, func(id int) bool { return m.dead[id] })
		tks, ok := route.ElectTakers(ls.Zones, cands)
		if !ok {
			m.mu.Unlock()
			return fmt.Errorf("membership: node %d has no alive neighbor to hand level-%d zones to", m.self, l)
		}
		assigns, finals := replayElection(ls.Zones, cands, tks)

		// Taker zone sets with addresses, shared by handoffs and notices.
		takerIDs := make([]int, 0, len(finals))
		for id := range finals {
			takerIDs = append(takerIDs, id)
		}
		sort.Ints(takerIDs)
		var takerZones []NodeZones
		isTaker := map[int]bool{}
		for _, a := range assigns {
			isTaker[a.Taker] = true
		}
		for _, id := range takerIDs {
			if !isTaker[id] {
				continue // candidate that took nothing
			}
			takerZones = append(takerZones, NodeZones{ID: id, Addr: m.book[id], Zones: finals[id]})
		}

		perTaker := map[int]*HandoffReq{}
		takerOrder := []int{}
		getReq := func(id int) *HandoffReq {
			h := perTaker[id]
			if h == nil {
				h = &HandoffReq{Level: l, Leaver: m.self, Neighbors: cloneNeighbors(ls.Neighbors), Takers: takerZones}
				perTaker[id] = h
				takerOrder = append(takerOrder, id)
			}
			return h
		}
		for _, a := range assigns {
			h := getReq(a.Taker)
			h.Assigns = append(h.Assigns, ZoneAssign{Zone: a.Zone, Merge: a.Merge, MergeWith: a.MergeWith})
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
			handoffs = append(handoffs, plannedHandoff{addr: m.book[id], req: *perTaker[id]})
		}

		upd := ZoneUpdate{Level: l, Removed: []int{m.self}, Updates: takerZones}
		body := encodeZoneUpdate(upd)
		for _, nb := range ls.Neighbors {
			if isTaker[nb.ID] || m.dead[nb.ID] {
				continue
			}
			notices = append(notices, outMsg{addr: nb.Addr, method: MethodZones, body: body})
		}
	}
	m.left = true
	m.mu.Unlock()

	for _, h := range handoffs {
		body, err := encodeHandoffReq(h.req)
		if err != nil {
			return err
		}
		if _, err := m.fabric.Call(ctx, h.addr, MethodHandoff, body); err != nil {
			return fmt.Errorf("membership: handoff to %s: %w", h.addr, err)
		}
	}
	m.sendAll(notices)

	m.mu.Lock()
	for l := range m.levels {
		m.levels[l] = LevelState{}
		m.bumpLocked(l)
	}
	m.mu.Unlock()
	return nil
}

// handleHandoff serves m.handoff as an elected taker: apply the zone
// assignments, absorb the records, rewire the neighborhood, and rebroadcast
// this node's grown zone set to its own neighbors.
func (m *Manager) handleHandoff(req HandoffReq) error {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return fmt.Errorf("membership: node %d has left the overlay", m.self)
	}
	if err := m.checkLevel(req.Level); err != nil {
		m.mu.Unlock()
		return err
	}
	ls := &m.levels[req.Level]
	zones := cloneZones(ls.Zones)
	for _, a := range req.Assigns {
		applied := false
		if a.Merge {
			if idx := indexOfZone(zones, a.MergeWith); idx >= 0 {
				if u, ok := route.UnionBox(a.Zone, zones[idx]); ok {
					zones[idx] = u
					applied = true
				}
			}
		}
		if !applied {
			zones = append(zones, a.Zone)
		}
	}
	ls.Zones = zones

	// Records: owned transfers are unconditional (the leaver's owner scan
	// already decided ownership — mirroring the oracle, which appends even
	// when the taker holds a replica of the same seq); replicas dedup against
	// what this node already holds and re-check overlap against the actual
	// post-takeover zones.
	for _, rec := range req.Owned {
		ls.Owned = append(ls.Owned, rec)
	}
	for _, rec := range req.Replicas {
		if route.ZonesIntersect(ls.Zones, rec.Entry.Key, rec.Entry.Radius) && !ls.holds(rec.Seq) {
			ls.Replicas = append(ls.Replicas, rec)
		}
	}

	// Rewire: drop the leaver, inherit its neighbors (at their post-takeover
	// zones when they are co-takers), and refresh co-taker entries.
	m.dead[req.Leaver] = true
	delete(m.fails, req.Leaver)
	delete(m.tables, req.Leaver)
	ls.Neighbors = removeNeighbor(ls.Neighbors, req.Leaver)
	takerZones := map[int][]route.Zone{}
	for _, t := range req.Takers {
		takerZones[t.ID] = t.Zones
		m.learnLocked(t.ID, t.Addr)
	}
	for _, nb := range req.Neighbors {
		if nb.ID == m.self || nb.ID == req.Leaver || m.dead[nb.ID] {
			continue
		}
		m.learnLocked(nb.ID, nb.Addr)
		zs := nb.Zones
		if tz, ok := takerZones[nb.ID]; ok {
			zs = tz
		}
		if route.ZoneSetsAdjacent(ls.Zones, zs) {
			ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: nb.ID, Addr: m.book[nb.ID], Zones: zs})
		}
	}
	for _, t := range req.Takers {
		if t.ID == m.self || m.dead[t.ID] {
			continue
		}
		if route.ZoneSetsAdjacent(ls.Zones, t.Zones) {
			ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: t.ID, Addr: m.book[t.ID], Zones: t.Zones})
		} else {
			ls.Neighbors = removeNeighbor(ls.Neighbors, t.ID)
		}
	}

	outs := m.rebroadcastLocked(req.Level, []int{req.Leaver})
	m.bumpLocked(req.Level)
	m.mu.Unlock()
	m.sendAll(outs)
	return nil
}

// rebroadcastLocked builds zone-update messages announcing this node's
// current zone set (and any removals) to all its neighbors at one level.
func (m *Manager) rebroadcastLocked(level int, removed []int) []outMsg {
	ls := &m.levels[level]
	upd := ZoneUpdate{Level: level, Removed: removed, Updates: []NodeZones{
		{ID: m.self, Addr: m.selfAddr, Zones: cloneZones(ls.Zones)},
	}}
	body := encodeZoneUpdate(upd)
	var outs []outMsg
	for _, nb := range ls.Neighbors {
		if m.dead[nb.ID] {
			continue
		}
		outs = append(outs, outMsg{addr: nb.Addr, method: MethodZones, body: body})
	}
	return outs
}

// handleZoneUpdate applies neighborhood news: removals mark departures;
// updates refresh or insert entries by adjacency.
func (m *Manager) handleZoneUpdate(upd ZoneUpdate) error {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return nil
	}
	if err := m.checkLevel(upd.Level); err != nil {
		m.mu.Unlock()
		return err
	}
	ls := &m.levels[upd.Level]
	for _, id := range upd.Removed {
		m.dead[id] = true
		delete(m.fails, id)
		delete(m.tables, id)
		ls.Neighbors = removeNeighbor(ls.Neighbors, id)
	}
	for _, u := range upd.Updates {
		if u.ID == m.self || m.dead[u.ID] {
			continue
		}
		m.learnLocked(u.ID, u.Addr)
		if route.ZoneSetsAdjacent(ls.Zones, u.Zones) {
			ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: u.ID, Addr: m.book[u.ID], Zones: u.Zones})
		} else {
			ls.Neighbors = removeNeighbor(ls.Neighbors, u.ID)
		}
	}
	m.bumpLocked(upd.Level)
	m.mu.Unlock()
	return nil
}

// ---- probing and crash takeover ----

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
	stop := make(chan struct{})
	m.probeStop = stop
	m.probeWG.Add(1)
	go func() {
		defer m.probeWG.Done()
		ticker := time.NewTicker(m.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.probeOnce(context.Background())
			}
		}
	}()
}

// StopProbing halts the probe loop and waits for the in-flight round.
// Idempotent.
func (m *Manager) StopProbing() {
	m.probeMu.Lock()
	stop := m.probeStop
	m.probeStop = nil
	m.probeMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	m.probeWG.Wait()
}

// probeOnce pings every current neighbor (union across levels) once, in
// parallel, and feeds the results into the failure detector.
func (m *Manager) probeOnce(ctx context.Context) {
	type target struct {
		id   int
		addr string
	}
	m.mu.RLock()
	if m.left {
		m.mu.RUnlock()
		return
	}
	seen := map[int]bool{}
	var targets []target
	for l := range m.levels {
		for _, nb := range m.levels[l].Neighbors {
			if nb.ID == m.self || seen[nb.ID] || m.dead[nb.ID] || nb.Addr == "" {
				continue
			}
			seen[nb.ID] = true
			targets = append(targets, target{id: nb.ID, addr: nb.Addr})
		}
	}
	selfAddr := m.selfAddr
	m.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	body := encodePingReq(PingReq{From: m.self, Addr: selfAddr})
	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg target) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, m.opts.ProbeTimeout)
			defer cancel()
			resp, err := m.fabric.Call(cctx, tg.addr, MethodPing, body)
			var tables []LevelTable
			if err == nil {
				tables, err = decodePingResp(resp)
			}
			m.noteProbe(tg.id, tables, err)
		}(tg)
	}
	wg.Wait()
}

// noteProbe feeds one probe outcome into the failure detector. A remote
// (application-level) error still proves the peer alive. FailAfter
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
		if err == nil {
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
	outs, recoveries := m.declareDeadLocked(id)
	m.mu.Unlock()
	m.sendAll(outs)
	go m.runRecoveries(recoveries)
}

// declareDeadLocked runs the crash takeover for peer c: per level, elect
// takers from c's last self-reported table (so every detector that probed c
// reaches the same election), update this node's own table, and — when this
// node is a taker — claim the zones, plan their republishes, and announce the
// claims to both neighborhoods.
func (m *Manager) declareDeadLocked(c int) ([]outMsg, []recoveryPlan) {
	m.dead[c] = true
	table := m.tables[c]
	delete(m.tables, c)
	delete(m.fails, c)

	var outs []outMsg
	var recoveries []recoveryPlan
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
		var ctable []Neighbor
		if l < len(table) {
			if len(table[l].Zones) > 0 {
				czones = table[l].Zones
			}
			ctable = table[l].Neighbors
		}
		if len(ctable) == 0 {
			// Never heard a ping from c: fall back to local knowledge — c's
			// neighbors we also neighbor, plus ourselves. Divergent detectors
			// are reconciled by the takeover conflict rule.
			for _, nb := range ls.Neighbors {
				if nb.ID != c && route.ZoneSetsAdjacent(czones, nb.Zones) {
					ctable = upsertNeighbor(ctable, nb)
				}
			}
			ctable = upsertNeighbor(ctable, Neighbor{ID: m.self, Addr: m.selfAddr, Zones: cloneZones(ls.Zones)})
		}
		cands := candidates(ctable, func(id int) bool { return id == c || m.dead[id] })
		tks, ok := route.ElectTakers(czones, cands)
		if !ok {
			ls.Neighbors = removeNeighbor(ls.Neighbors, c)
			continue
		}
		assigns, finals := replayElection(czones, cands, tks)

		// Remember c's neighborhood before rewiring (announcement targets).
		cNeighbors := cloneNeighbors(ctable)
		ls.Neighbors = removeNeighbor(ls.Neighbors, c)

		// Apply our own claims first, snapshotting for conflict rollback.
		selfTook := false
		var claimed []route.Zone
		for _, a := range assigns {
			if a.Taker != m.self {
				continue
			}
			m.claims[claimKey(l, a.Zone)] = claim{level: l, zone: a.Zone, prevZones: cloneZones(ls.Zones)}
			zones := cloneZones(ls.Zones)
			applied := false
			if a.Merge {
				if zi := indexOfZone(zones, a.MergeWith); zi >= 0 {
					if u, ok := route.UnionBox(a.Zone, zones[zi]); ok {
						zones[zi] = u
						applied = true
					}
				}
			}
			if !applied {
				zones = append(zones, a.Zone)
			}
			ls.Zones = zones
			claimed = append(claimed, a.Zone)
			recoveries = append(recoveries, recoveryPlan{level: l, zone: a.Zone})
			selfTook = true
		}

		// Update our table: other takers at their final zones, by adjacency.
		for takerID, fz := range finals {
			if takerID == m.self || m.dead[takerID] {
				continue
			}
			addr := m.book[takerID]
			if addr == "" {
				if i := findNeighbor(cNeighbors, takerID); i >= 0 {
					addr = cNeighbors[i].Addr
					m.learnLocked(takerID, addr)
				}
			}
			if route.ZoneSetsAdjacent(ls.Zones, fz) {
				ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: takerID, Addr: addr, Zones: fz})
			} else {
				ls.Neighbors = removeNeighbor(ls.Neighbors, takerID)
			}
		}

		if !selfTook {
			continue
		}
		// Inherit c's neighbors that now adjoin our grown zones.
		for _, nb := range cNeighbors {
			if nb.ID == m.self || nb.ID == c || m.dead[nb.ID] {
				continue
			}
			m.learnLocked(nb.ID, nb.Addr)
			zs := nb.Zones
			if fz, ok := finals[nb.ID]; ok {
				zs = fz
			}
			if route.ZoneSetsAdjacent(ls.Zones, zs) {
				ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: nb.ID, Addr: m.book[nb.ID], Zones: zs})
			}
		}
		// Announce each claim to c's neighborhood and our own.
		annTargets := map[int]string{}
		for _, nb := range cNeighbors {
			if nb.ID != m.self && nb.ID != c && !m.dead[nb.ID] && nb.Addr != "" {
				annTargets[nb.ID] = nb.Addr
			}
		}
		for _, nb := range ls.Neighbors {
			if nb.ID != m.self && nb.ID != c && !m.dead[nb.ID] && nb.Addr != "" {
				annTargets[nb.ID] = nb.Addr
			}
		}
		ids := make([]int, 0, len(annTargets))
		for id := range annTargets {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, z := range claimed {
			body := encodeTakeoverMsg(TakeoverMsg{
				Level: l, Crashed: c, Zone: z,
				Taker: m.self, TakerAddr: m.selfAddr, TakerZones: cloneZones(ls.Zones),
			})
			for _, id := range ids {
				outs = append(outs, outMsg{addr: annTargets[id], method: MethodTakeover, body: body})
			}
		}
	}
	// The counter is raised under the lock that records the claims, so Busy
	// never reads false between a takeover and its republish.
	m.recovering += len(recoveries)
	return outs, recoveries
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
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return nil
	}
	if err := m.checkLevel(msg.Level); err != nil {
		m.mu.Unlock()
		return err
	}
	var outs []outMsg
	var recoveries []recoveryPlan
	if !m.dead[msg.Crashed] {
		outs, recoveries = m.declareDeadLocked(msg.Crashed)
	}
	ls := &m.levels[msg.Level]
	m.dead[msg.Crashed] = true
	delete(m.fails, msg.Crashed)
	delete(m.tables, msg.Crashed)
	ls.Neighbors = removeNeighbor(ls.Neighbors, msg.Crashed)
	m.learnLocked(msg.Taker, msg.TakerAddr)

	if msg.Taker != m.self {
		ck := claimKey(msg.Level, msg.Zone)
		if cl, ok := m.claims[ck]; ok && route.ZonesContain(ls.Zones, zoneCenter(msg.Zone)) {
			if msg.Taker < m.self {
				// Lost the conflict: restore the pre-claim zone set, refilter
				// records against it, tell the neighborhood. A pending
				// republish for the zone self-cancels (recoverZone re-checks
				// ownership before merging).
				ls.Zones = cl.prevZones
				refilterRecords(ls)
				delete(m.claims, ck)
				outs = append(outs, m.rebroadcastLocked(msg.Level, nil)...)
			} else {
				// Won: keep the zone; the sender relinquishes when our own
				// announcement reaches it. Don't adopt its claimed zone set.
				m.bumpLocked(msg.Level)
				m.mu.Unlock()
				m.sendAll(outs)
				go m.runRecoveries(recoveries)
				return nil
			}
		}
		if route.ZoneSetsAdjacent(ls.Zones, msg.TakerZones) {
			ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: msg.Taker, Addr: msg.TakerAddr, Zones: msg.TakerZones})
		} else {
			ls.Neighbors = removeNeighbor(ls.Neighbors, msg.Taker)
		}
	}
	m.bumpLocked(msg.Level)
	m.mu.Unlock()
	m.sendAll(outs)
	go m.runRecoveries(recoveries)
	return nil
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

// handlePing answers a liveness probe with this node's per-level state
// snapshot (the detector's election input).
func (m *Manager) handlePing(req PingReq) ([]byte, error) {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return nil, fmt.Errorf("membership: node %d has left the overlay", m.self)
	}
	m.learnLocked(req.From, req.Addr)
	tables := make([]LevelTable, len(m.levels))
	for l := range m.levels {
		tables[l] = LevelTable{
			Zones:     cloneZones(m.levels[l].Zones),
			Neighbors: cloneNeighbors(m.levels[l].Neighbors),
		}
	}
	m.mu.Unlock()
	return encodePingResp(tables), nil
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
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		found, err = m.fabric.Collect(ctx, p.level, center, radius)
		cancel()
		if err == nil {
			break
		}
	}
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
		m.bumpLocked(p.level)
	}
	m.mu.Unlock()
}

// sendAll delivers protocol messages best-effort and sequentially (the
// transport client retries transient faults; a peer that died mid-protocol
// will be handled by its own detectors).
func (m *Manager) sendAll(msgs []outMsg) {
	for _, msg := range msgs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		m.fabric.Call(ctx, msg.addr, msg.method, msg.body) //nolint:errcheck
		cancel()
	}
}
