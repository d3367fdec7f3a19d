package membership

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// The manager speaks one file per transition — join.go, leave.go (graceful
// leave), crash.go (probing, takeover, rollback), records.go (m.store_rec,
// republish) and zones.go (m.zones) — and each states its invariant there.
// Every transition a peer's message asks for enters the node's state through
// apply, and every transition rewires neighbor tables through the same few
// helpers below (forgetLocked, adoptLocked, inheritLocked, annex).

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

// outMsg is one protocol message computed under the lock and sent after it
// is released — the manager never performs network I/O while locked.
type outMsg struct {
	addr   string
	method string
	body   []byte
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
	// claims maps each recent zone claim of this node (claimKey) to its zone
	// set just before the claim, so a lost takeover conflict can be rolled
	// back (crash.go).
	claims map[string][]route.Zone
	// recovering counts in-flight post-takeover republishes (Busy).
	recovering int
	// epoch counts the churn events this node has observed at any level (its
	// own mutations plus neighbor-table changes seen in probe responses); a
	// coordinator's answer memo trusts an entry only within the epoch it was
	// recorded at. Atomic, so the read is one load, lock-free.
	epoch atomic.Uint64

	probeMu   sync.Mutex
	probeStop context.CancelFunc // ends the probe loop's context
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
		claims: map[string][]route.Zone{},
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

// bumpLocked records a churn event this node observed at some level — a
// mutation of its own zones, neighbor table or records by the membership
// protocol, or news of a neighbor's. Callers hold mu.
func (m *Manager) bumpLocked() { m.epoch.Add(1) }

// Epoch returns this node's churn epoch without taking the lock: a counter
// that moves on every membership event the node observes, at any level. It
// only grows, so two equal readings bracket a span with no membership event —
// the signal the coordinator's answer memo resets on.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// ---- RPC dispatch ----

// HandleRPC serves one membership RPC (called by the node daemon's handler).
func (m *Manager) HandleRPC(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodJoin:
		req, err := transport.Decode(body, walkJoinReq)
		if err != nil {
			return nil, err
		}
		return m.handleJoin(req)
	case MethodHandoff:
		req, err := transport.Decode(body, walkHandoffReq)
		if err != nil {
			return nil, err
		}
		return nil, m.handleHandoff(req)
	case MethodPing:
		req, err := transport.Decode(body, walkPingReq)
		if err != nil {
			return nil, err
		}
		return m.handlePing(req)
	case MethodTakeover:
		msg, err := transport.Decode(body, walkTakeoverMsg)
		if err != nil {
			return nil, err
		}
		return nil, m.handleTakeover(msg)
	case MethodZones:
		upd, err := transport.Decode(body, walkZoneUpdate)
		if err != nil {
			return nil, err
		}
		return nil, m.handleZoneUpdate(upd)
	case MethodStoreRec:
		req, err := transport.Decode(body, WalkStoreRecReq)
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

// leftErr refuses a request to a node that has left the overlay. Callers
// hold mu.
func (m *Manager) leftErr() error {
	if m.left {
		return fmt.Errorf("membership: node %d has left the overlay", m.self)
	}
	return nil
}

// ---- the rewire path ----

// apply is the one way a peer's message changes this node's state. Under
// the lock it refuses a node that has left, a level it does not have, and
// any of the message's zones that fail checkDims — all before anything
// moves; fn then mutates the level and names the messages and republishes
// the change owes, and the level counts one churn event. Unlocked, apply
// sends the messages and starts the republishes. fn must not mutate the level
// when it returns an error.
func (m *Manager) apply(level int, zones []route.Zone, fn func(ls *LevelState) ([]outMsg, []recoveryPlan, error)) error {
	m.mu.Lock()
	var outs []outMsg
	var plans []recoveryPlan
	err := m.leftErr()
	if err == nil {
		err = m.checkLevel(level)
	}
	if err == nil {
		err = checkDims(&m.levels[level], zones)
	}
	if err == nil {
		outs, plans, err = fn(&m.levels[level])
	}
	if err == nil {
		m.bumpLocked()
	}
	m.mu.Unlock()
	m.sendAll(outs)
	if len(plans) > 0 {
		go m.runRecoveries(plans)
	}
	return err
}

// checkDims refuses zones that are not boxes of the level's dimension — that
// of this node's own zones there (CheckView); a point is checked as a zone of
// no extent. A level where this node holds no zone has nothing to check
// against, and nothing for a zone to adjoin.
func checkDims(ls *LevelState, zones []route.Zone) error {
	if len(ls.Zones) == 0 {
		return nil
	}
	return CheckView(len(ls.Zones[0].Lo), zones, nil)
}

// CheckView refuses what a peer says about a level of dimension dim unless
// every zone, neighbor zone, record key and record center in it has dim
// coordinates. The geometry that routes, floods, merges and scores indexes
// both operands by the same coordinates, so a vector of another length
// either panics it or brings a zone of another space into play.
func CheckView(dim int, zones []route.Zone, nbs []Neighbor, recs ...[]route.RecordView) error {
	for _, nb := range nbs {
		if err := CheckView(dim, nb.Zones, nil); err != nil {
			return err
		}
	}
	for _, z := range zones {
		if len(z.Lo) != dim || len(z.Hi) != dim {
			return fmt.Errorf("membership: a zone of %d/%d coordinates at a level of dimension %d", len(z.Lo), len(z.Hi), dim)
		}
	}
	for _, rs := range recs {
		for _, r := range rs {
			if ref, _ := r.Entry.Payload.(core.ClusterRef); len(r.Entry.Key) != dim || len(ref.Center) != dim {
				return fmt.Errorf("membership: a record of %d/%d key/center coordinates at a level of dimension %d", len(r.Entry.Key), len(ref.Center), dim)
			}
		}
	}
	return nil
}

// point is p as a zone of no extent, for checkDims.
func point(p []float64) route.Zone { return route.Zone{Lo: p, Hi: p} }

// tableZones lists the zones of every entry of the given tables.
func tableZones(tables ...[]Neighbor) []route.Zone {
	var out []route.Zone
	for _, ns := range tables {
		for _, nb := range ns {
			out = append(out, nb.Zones...)
		}
	}
	return out
}

// forgetLocked records that peer id has departed — it is never probed,
// elected or entered again, and its detector state goes — and drops it from
// ls's table when ls is given. Returns its last self-report.
func (m *Manager) forgetLocked(ls *LevelState, id int) []LevelTable {
	table := m.tables[id]
	m.dead[id] = true
	delete(m.fails, id)
	delete(m.tables, id)
	if ls != nil {
		ls.Neighbors = removeNeighbor(ls.Neighbors, id)
	}
	return table
}

// adoptLocked applies a peer's current zones to ls's table: the peer is
// entered (or refreshed) when one of its zones adjoins one of ours, and
// dropped otherwise when drop is set. This node and departed peers are never
// entered.
func (m *Manager) adoptLocked(ls *LevelState, nb Neighbor, drop bool) {
	if nb.ID == m.self || m.dead[nb.ID] {
		return
	}
	m.learnLocked(nb.ID, nb.Addr)
	if route.ZoneSetsAdjacent(ls.Zones, nb.Zones) {
		ls.Neighbors = upsertNeighbor(ls.Neighbors, Neighbor{ID: nb.ID, Addr: m.book[nb.ID], Zones: nb.Zones})
	} else if drop {
		ls.Neighbors = removeNeighbor(ls.Neighbors, nb.ID)
	}
}

// inheritLocked rewires ls's table after a departure's takeover: table is
// the departed peer's neighbor table and finals the zone sets of the
// election's candidates once every zone is handed over. A candidate is
// adopted at its final zones; any other neighbor of the departed peer joins
// our table if it now adjoins our zones.
func (m *Manager) inheritLocked(ls *LevelState, table []Neighbor, finals map[int][]route.Zone) {
	for _, nb := range table {
		fz, cand := finals[nb.ID]
		if cand {
			nb.Zones = fz
		}
		m.adoptLocked(ls, nb, cand)
	}
}

// annex returns zones with one handed-over zone added: box-merged into the
// zone equal to a.MergeWith when a.Merge asks for it and the union is a box,
// appended otherwise. zones itself is not modified.
func annex(zones []route.Zone, a ZoneAssign) []route.Zone {
	zones = cloneZones(zones)
	if a.Merge {
		if i := indexOfZone(zones, a.MergeWith); i >= 0 {
			if u, ok := route.UnionBox(a.Zone, zones[i]); ok {
				zones[i] = u
				return zones
			}
		}
	}
	return append(zones, a.Zone)
}

// adjacentTo returns the entries of ns whose zones adjoin zs, in order.
func adjacentTo(zs []route.Zone, ns []Neighbor) []Neighbor {
	var out []Neighbor
	for _, nb := range ns {
		if route.ZoneSetsAdjacent(zs, nb.Zones) {
			out = append(out, nb)
		}
	}
	return out
}

// sendLocked addresses body to each peer of ns once, ascending id, except
// this node, departed peers, peers without an address and those in except.
func (m *Manager) sendLocked(ns, except []Neighbor, method string, body []byte) []outMsg {
	ns = append([]Neighbor(nil), ns...)
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	var outs []outMsg
	for i, nb := range ns {
		if nb.ID == m.self || m.dead[nb.ID] || nb.Addr == "" || findNeighbor(except, nb.ID) >= 0 ||
			i+1 < len(ns) && ns[i+1].ID == nb.ID {
			continue
		}
		outs = append(outs, outMsg{addr: nb.Addr, method: method, body: body})
	}
	return outs
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

// retry runs try up to 8 times, pausing between attempts, until it succeeds
// or fails with an error it does not ask to retry.
func retry(ctx context.Context, pause time.Duration, try func() (again bool, err error)) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var again bool
		if again, err = try(); err == nil || !again {
			return err
		}
	}
	return err
}
