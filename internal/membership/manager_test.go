package membership

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hyperm/internal/can"
	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// fakeFabric wires managers together in-process: calls dispatch synchronously
// through the real wire codecs, Collect and RouteOwner answer from global
// state the way the simulator's scans do. Peers marked down behave like
// crashed processes (transport-unavailable).
type fakeFabric struct {
	mu   sync.Mutex
	mgrs map[string]*Manager
	down map[string]bool
	// delay, when set for an address, stalls calls until the context dies —
	// the slow-but-alive peer of the probe edge-case tests.
	delay map[string]bool
	// tap, when set, sees every call before it is delivered.
	tap func(addr, method string, body []byte)
	// respond, when set, rewrites every response before the caller sees it.
	respond func(method string, resp []byte) []byte
	// seen is what checkEpoch last saw of each node.
	seen map[int]epochSeen
}

// epochSeen is one reading of a node's churn epoch with the part of its state
// the epoch must move with: per level, its zones and its neighbors' ids and
// zones (addresses are learnt without a membership event).
type epochSeen struct {
	epoch uint64
	topo  [][][]route.Zone
}

// seeEpoch reads m's epoch, then its topology: a topology change after the
// reading can only move the epoch further.
func seeEpoch(m *Manager) epochSeen {
	s := epochSeen{epoch: m.Epoch()}
	for l := 0; l < m.NumLevels(); l++ {
		ls := m.View(l)
		zones := [][]route.Zone{ls.Zones}
		for _, nb := range ls.Neighbors {
			zones = append(zones, append([]route.Zone{{Lo: []float64{float64(nb.ID)}}}, nb.Zones...))
		}
		s.topo = append(s.topo, zones)
	}
	return s
}

// checkEpochMoved holds m's churn epoch to its contract since an earlier
// reading: it never falls, and it has moved if the node's zones or neighbor
// table did.
func checkEpochMoved(t *testing.T, tag string, m *Manager, before epochSeen) {
	t.Helper()
	now := seeEpoch(m)
	if now.epoch < before.epoch {
		t.Fatalf("%s node %d: epoch fell from %d to %d", tag, m.Self(), before.epoch, now.epoch)
	}
	if now.epoch == before.epoch && !reflect.DeepEqual(now.topo, before.topo) {
		t.Fatalf("%s node %d: zones or neighbor table changed with the epoch standing at %d", tag, m.Self(), now.epoch)
	}
}

// checkEpoch runs checkEpochMoved against what the last check of m saw.
func (f *fakeFabric) checkEpoch(t *testing.T, tag string, m *Manager) {
	t.Helper()
	f.mu.Lock()
	before, ok := f.seen[m.Self()]
	f.mu.Unlock()
	if ok {
		checkEpochMoved(t, tag, m, before)
	}
	now := seeEpoch(m)
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[int]epochSeen{}
	}
	f.seen[m.Self()] = now
	f.mu.Unlock()
}

func newFakeFabric() *fakeFabric {
	return &fakeFabric{mgrs: map[string]*Manager{}, down: map[string]bool{}, delay: map[string]bool{}}
}

func (f *fakeFabric) add(addr string, m *Manager)   { f.mu.Lock(); f.mgrs[addr] = m; f.mu.Unlock() }
func (f *fakeFabric) crash(addr string)             { f.mu.Lock(); f.down[addr] = true; f.mu.Unlock() }
func (f *fakeFabric) setDelay(addr string, on bool) { f.mu.Lock(); f.delay[addr] = on; f.mu.Unlock() }
func (f *fakeFabric) lookup(addr string) (*Manager, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.mgrs[addr]
	return m, ok && !f.down[addr], f.delay[addr]
}

func (f *fakeFabric) Call(ctx context.Context, addr, method string, body []byte) ([]byte, error) {
	if f.tap != nil {
		f.tap(addr, method, body)
	}
	m, up, delayed := f.lookup(addr)
	if delayed {
		<-ctx.Done()
		return nil, fmt.Errorf("fake: %s stalled: %w", addr, ctx.Err())
	}
	if !up || m == nil {
		return nil, fmt.Errorf("fake: %s is down: %w", addr, transport.ErrUnavailable)
	}
	resp, err := m.HandleRPC(ctx, method, body)
	if err != nil {
		// Mirror the real transport: handler refusals arrive as remote
		// errors carrying the machine-readable detail token.
		return nil, &transport.RemoteError{Msg: err.Error(), Detail: transport.ErrorDetail(err)}
	}
	if f.respond != nil {
		resp = f.respond(method, resp)
	}
	return resp, nil
}

// alive returns the up managers sorted by id.
func (f *fakeFabric) alive() []*Manager {
	f.mu.Lock()
	var out []*Manager
	for addr, m := range f.mgrs {
		if !f.down[addr] && !m.Left() {
			out = append(out, m)
		}
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Self() < out[j].Self() })
	return out
}

// Collect mirrors the simulator's global scan: alive nodes ascending id,
// owned before replicas, sphere-intersection filter, seq-dedup, seq-sort.
func (f *fakeFabric) Collect(ctx context.Context, level int, key []float64, radius float64) ([]route.RecordView, error) {
	seen := map[int]bool{}
	var out []route.RecordView
	add := func(recs []route.RecordView) {
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
	for _, m := range f.alive() {
		ls := m.View(level)
		add(ls.Owned)
		add(ls.Replicas)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

func (f *fakeFabric) RouteOwner(ctx context.Context, level int, bootstrap string, key []float64) (int, string, error) {
	for _, m := range f.alive() {
		ls := m.View(level)
		if route.ZonesContain(ls.Zones, key) {
			addr, err := m.Addr(m.Self())
			return m.Self(), addr, err
		}
	}
	return 0, "", fmt.Errorf("fake: no alive owner of %v", key)
}

func testAddr(id int) string { return fmt.Sprintf("n%d", id) }

// levelFromView converts a simulator node view into manager level state,
// attaching the test address scheme to neighbor entries.
func levelFromView(v can.NodeView) LevelState {
	ls := LevelState{
		Zones:    append([]route.Zone(nil), v.Zones...),
		Owned:    append([]route.RecordView(nil), v.Owned...),
		Replicas: append([]route.RecordView(nil), v.Replicas...),
	}
	for _, nb := range v.Neighbors {
		ls.Neighbors = append(ls.Neighbors, Neighbor{ID: nb.ID, Addr: testAddr(nb.ID), Zones: nb.Zones})
	}
	return ls
}

// probeRound makes every alive manager probe its neighbors once, ascending
// id — the deterministic stand-in for the concurrent probe tickers.
func probeRound(f *fakeFabric) {
	for _, m := range f.alive() {
		m.probeOnce(context.Background())
	}
}

func waitIdle(t testing.TB, f *fakeFabric) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for _, m := range f.alive() {
			if m.Busy() {
				busy = true
			}
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recoveries never quiesced")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func insertSpheres(o *can.Overlay, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		key := make([]float64, o.Dim())
		for d := range key {
			key[d] = rng.Float64()
		}
		radius := rng.Float64() * 0.15
		o.InsertSphere(rng.Intn(o.Size()), overlay.Entry{
			Key: key, Radius: radius,
			Payload: core.ClusterRef{Peer: i % o.Size(), Level: 0, Index: i, Center: key, Radius: radius, Items: i + 1},
		})
	}
}

// buildPair constructs a simulator overlay and a live manager per node
// initialized from its view — the starting point of every parity test.
func buildPair(t testing.TB, seed int64, nodes, dim, spheres int, opts Options) (*can.Overlay, *fakeFabric, map[int]*Manager) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o, err := can.Build(can.Config{Nodes: nodes, Dim: dim, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	insertSpheres(o, rng, spheres)

	f := newFakeFabric()
	mgrs := map[int]*Manager{}
	addrs := make([]string, nodes)
	for id := 0; id < nodes; id++ {
		addrs[id] = testAddr(id)
	}
	for id := 0; id < nodes; id++ {
		m := NewManager(id, nodes, []LevelState{levelFromView(o.View(id))}, f, opts)
		m.SetSelfAddr(testAddr(id))
		m.SeedBook(addrs)
		f.add(testAddr(id), m)
		mgrs[id] = m
	}
	return o, f, mgrs
}

// compareLevel requires a manager's level state to be byte-identical to the
// oracle node's view: zones in order, neighbor ids/zones/addresses in order,
// and record stores in storage order.
func compareLevel(t *testing.T, tag string, want can.NodeView, got LevelState) {
	t.Helper()
	if len(got.Zones) != len(want.Zones) {
		t.Fatalf("%s: %d zones, oracle has %d\n live: %v\n oracle: %v", tag, len(got.Zones), len(want.Zones), got.Zones, want.Zones)
	}
	for i := range want.Zones {
		if !zoneEqual(got.Zones[i], want.Zones[i]) {
			t.Fatalf("%s: zone %d = %v, oracle %v", tag, i, got.Zones[i], want.Zones[i])
		}
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		gotIDs := make([]int, len(got.Neighbors))
		for i, nb := range got.Neighbors {
			gotIDs[i] = nb.ID
		}
		wantIDs := make([]int, len(want.Neighbors))
		for i, nb := range want.Neighbors {
			wantIDs[i] = nb.ID
		}
		t.Fatalf("%s: neighbors %v, oracle %v", tag, gotIDs, wantIDs)
	}
	for i, nb := range want.Neighbors {
		g := got.Neighbors[i]
		if g.ID != nb.ID {
			t.Fatalf("%s: neighbor[%d] id %d, oracle %d", tag, i, g.ID, nb.ID)
		}
		if g.Addr != testAddr(nb.ID) {
			t.Fatalf("%s: neighbor %d addr %q, want %q", tag, nb.ID, g.Addr, testAddr(nb.ID))
		}
		if len(g.Zones) != len(nb.Zones) {
			t.Fatalf("%s: neighbor %d has %d zones, oracle %d\n live: %v\n oracle: %v",
				tag, nb.ID, len(g.Zones), len(nb.Zones), g.Zones, nb.Zones)
		}
		for zi := range nb.Zones {
			if !zoneEqual(g.Zones[zi], nb.Zones[zi]) {
				t.Fatalf("%s: neighbor %d zone %d = %v, oracle %v", tag, nb.ID, zi, g.Zones[zi], nb.Zones[zi])
			}
		}
	}
	compareRecords(t, tag+" owned", want.Owned, got.Owned)
	compareRecords(t, tag+" replicas", want.Replicas, got.Replicas)
}

func compareRecords(t *testing.T, tag string, want, got []route.RecordView) {
	t.Helper()
	if len(got) != len(want) {
		gotSeqs := make([]int, len(got))
		for i, r := range got {
			gotSeqs[i] = r.Seq
		}
		wantSeqs := make([]int, len(want))
		for i, r := range want {
			wantSeqs[i] = r.Seq
		}
		t.Fatalf("%s: seqs %v, oracle %v", tag, gotSeqs, wantSeqs)
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("%s: record[%d] seq %d, oracle %d", tag, i, got[i].Seq, want[i].Seq)
		}
		w, ok1 := want[i].Entry.Payload.(core.ClusterRef)
		g, ok2 := got[i].Entry.Payload.(core.ClusterRef)
		if !ok1 || !ok2 {
			t.Fatalf("%s: record[%d] payloads %T vs %T", tag, i, want[i].Entry.Payload, got[i].Entry.Payload)
		}
		if w.Peer != g.Peer || w.Level != g.Level || w.Index != g.Index || w.Items != g.Items || w.Radius != g.Radius {
			t.Fatalf("%s: record[%d] payload %+v, oracle %+v", tag, i, g, w)
		}
	}
}

func comparePair(t *testing.T, tag string, o *can.Overlay, f *fakeFabric) {
	t.Helper()
	var tiles [][]route.Zone
	for _, m := range f.alive() {
		ls := m.View(0)
		compareLevel(t, fmt.Sprintf("%s node %d", tag, m.Self()), o.View(m.Self()), ls)
		tiles = append(tiles, ls.Zones)
		f.checkEpoch(t, tag, m)
	}
	if !route.VerifyTiling(tiles) {
		t.Fatalf("%s: live zones do not tile the torus", tag)
	}
}

// TestProtocolMatchesOracle replays a mixed churn schedule — joins at chosen
// points, graceful leaves, crashes detected via probes — through both the
// live protocol (fake fabric, real codecs) and the simulator, and requires
// every surviving node's zones, neighbor tables, and record stores to be
// byte-identical after every step, over 20 seeds.
func TestProtocolMatchesOracle(t *testing.T) {
	seeds := []int64{42}
	for s := int64(1); s < 20; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const nodes, dim = 10, 2
			o, f, mgrs := buildPair(t, seed, nodes, dim, 30, Options{FailAfter: 2})
			rng := rand.New(rand.NewSource(seed * 977))
			ctx := context.Background()
			nextID := nodes
			aliveIDs := map[int]bool{}
			for id := 0; id < nodes; id++ {
				aliveIDs[id] = true
			}
			pick := func() int {
				ids := make([]int, 0, len(aliveIDs))
				for id := range aliveIDs {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids[rng.Intn(len(ids))]
			}
			bootstrap := func() string {
				ids := make([]int, 0, len(aliveIDs))
				for id := range aliveIDs {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return testAddr(ids[0])
			}

			// Tables must be warm before the first crash: a live detector
			// elects from the crashed node's last self-report.
			probeRound(f)
			comparePair(t, "pre-churn", o, f)

			const steps = 24
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(4); {
				case op <= 1: // join (twice the weight of each departure kind)
					point := make([]float64, dim)
					for d := range point {
						point[d] = rng.Float64()
					}
					wantID, err := o.JoinNode(point)
					if err != nil {
						t.Fatalf("step %d: oracle join: %v", step, err)
					}
					if wantID != nextID {
						t.Fatalf("step %d: oracle assigned id %d, expected %d", step, wantID, nextID)
					}
					m := NewManager(nextID, nextID+1, []LevelState{{}}, f, Options{FailAfter: 2})
					m.SetSelfAddr(testAddr(nextID))
					f.add(testAddr(nextID), m)
					if err := m.Join(ctx, bootstrap(), [][]float64{point}); err != nil {
						t.Fatalf("step %d: live join: %v", step, err)
					}
					mgrs[nextID] = m
					aliveIDs[nextID] = true
					nextID++
				case op == 2: // graceful leave
					if len(aliveIDs) < 3 {
						continue
					}
					id := pick()
					if _, err := o.Leave(id); err != nil {
						t.Fatalf("step %d: oracle leave %d: %v", step, id, err)
					}
					if err := mgrs[id].Leave(ctx); err != nil {
						t.Fatalf("step %d: live leave %d: %v", step, id, err)
					}
					f.crash(testAddr(id)) // process exits after leaving
					delete(aliveIDs, id)
				default: // crash
					if len(aliveIDs) < 3 {
						continue
					}
					id := pick()
					if _, err := o.Crash(id); err != nil {
						t.Fatalf("step %d: oracle crash %d: %v", step, id, err)
					}
					f.crash(testAddr(id))
					delete(aliveIDs, id)
					for r := 0; r < 2; r++ { // FailAfter rounds
						probeRound(f)
					}
					waitIdle(t, f)
				}
				// Keep detector tables as fresh as a live probe ticker would.
				probeRound(f)
				waitIdle(t, f)
				comparePair(t, fmt.Sprintf("step %d", step), o, f)
			}
		})
	}
}

// TestJoinRefusedWhenZoneTooSmall asks an owner to split a zone one float64
// wide: the join is refused with the route/zone-too-small detail token (what
// the joiner sees across the wire) and the owner's state does not move.
func TestJoinRefusedWhenZoneTooSmall(t *testing.T) {
	lo := 0.7
	zone := route.Zone{Lo: []float64{lo}, Hi: []float64{math.Nextafter(lo, 1)}}
	m := NewManager(0, 1, []LevelState{{Zones: []route.Zone{zone}}}, nil, Options{})
	body := encodeJoinReq(JoinReq{Level: 0, Joiner: 1, Addr: testAddr(1), Point: []float64{lo}})
	_, err := m.HandleRPC(context.Background(), MethodJoin, body)
	if !errors.Is(err, route.ErrZoneTooSmall) || transport.ErrorDetail(err) != route.DetailZoneTooSmall {
		t.Fatalf("join into a one-float64 zone: err %v, detail %q", err, transport.ErrorDetail(err))
	}
	if ls := m.View(0); len(ls.Zones) != 1 || !reflect.DeepEqual(ls.Zones[0], zone) || len(ls.Neighbors) != 0 || m.Epoch() != 0 {
		t.Fatalf("refused join changed the owner: %+v, epoch %d", ls, m.Epoch())
	}
}

// TestMembershipRefusesWrongDimensionZones sends a 2-d level each
// zone-carrying message with one zone (or record key) of the wrong shape —
// too few coordinates, or Lo and Hi of different lengths. Each must be
// refused before anything moves: no panic in the adjacency geometry, no
// silently installed zone, the level state and its epoch untouched.
func TestMembershipRefusesWrongDimensionZones(t *testing.T) {
	short := route.Zone{Lo: []float64{0.5}, Hi: []float64{0.75}}
	ragged := route.Zone{Lo: []float64{0.5, 0.5}, Hi: []float64{0.75}}
	shortKey := route.RecordView{Seq: 1 << 20, Entry: overlay.Entry{
		Key: []float64{0.5}, Radius: 0.1,
		Payload: core.ClusterRef{Center: []float64{0.5}, Radius: 0.1, Items: 1},
	}}
	type env struct {
		nb, other Neighbor // two of node 0's neighbors
		ls        LevelState
	}
	rows := []struct {
		name, method string
		body         func(e env) []byte
	}{
		{"zones/update-short", MethodZones, func(e env) []byte {
			return encodeZoneUpdate(ZoneUpdate{Updates: []Neighbor{{ID: e.nb.ID, Addr: e.nb.Addr, Zones: []route.Zone{short}}}})
		}},
		{"zones/update-ragged", MethodZones, func(e env) []byte {
			return encodeZoneUpdate(ZoneUpdate{Updates: []Neighbor{{ID: 9, Addr: testAddr(9), Zones: []route.Zone{ragged}}}})
		}},
		{"zones/removal-beside-bad-update", MethodZones, func(e env) []byte {
			return encodeZoneUpdate(ZoneUpdate{Removed: []int{e.nb.ID}, Updates: []Neighbor{{ID: e.other.ID, Addr: e.other.Addr, Zones: []route.Zone{short}}}})
		}},
		{"takeover/zone-short", MethodTakeover, func(e env) []byte {
			return encodeTakeoverMsg(TakeoverMsg{Crashed: e.nb.ID, Zone: short, Taker: e.other.ID, TakerAddr: e.other.Addr, TakerZones: e.other.Zones})
		}},
		{"takeover/taker-zones-short", MethodTakeover, func(e env) []byte {
			return encodeTakeoverMsg(TakeoverMsg{Crashed: e.nb.ID, Zone: e.nb.Zones[0], Taker: e.other.ID, TakerAddr: e.other.Addr, TakerZones: []route.Zone{short}})
		}},
		{"takeover/taker-zones-ragged", MethodTakeover, func(e env) []byte {
			return encodeTakeoverMsg(TakeoverMsg{Crashed: e.nb.ID, Zone: e.nb.Zones[0], Taker: e.other.ID, TakerAddr: e.other.Addr, TakerZones: append(cloneZones(e.other.Zones), ragged)})
		}},
		{"handoff/assign-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: short}}})
		}},
		{"handoff/merge-with-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: e.nb.Zones[0], Merge: true, MergeWith: short}}})
		}},
		{"handoff/neighbors-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: e.nb.Zones[0]}},
				Neighbors: []Neighbor{{ID: e.other.ID, Addr: e.other.Addr, Zones: []route.Zone{short}}}})
		}},
		{"handoff/takers-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: e.nb.Zones[0]}},
				Takers: []Neighbor{{ID: 0, Addr: testAddr(0), Zones: []route.Zone{ragged}}}})
		}},
		{"handoff/owned-key-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: e.nb.Zones[0]}}, Owned: []route.RecordView{shortKey}})
		}},
		{"handoff/replica-key-short", MethodHandoff, func(e env) []byte {
			return handoffBody(HandoffReq{Leaver: e.nb.ID, Assigns: []ZoneAssign{{Zone: e.nb.Zones[0]}}, Replicas: []route.RecordView{shortKey}})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, _, mgrs := buildPair(t, 3, 4, 2, 12, Options{})
			m := mgrs[0]
			e := env{ls: m.View(0)}
			if len(e.ls.Neighbors) < 2 {
				t.Fatalf("node 0 has %d neighbors, want two", len(e.ls.Neighbors))
			}
			e.nb, e.other = e.ls.Neighbors[0], e.ls.Neighbors[1]
			epoch := m.Epoch()
			err := func() error {
				defer func() {
					if p := recover(); p != nil {
						// The manager may still hold its lock: stop here.
						t.Fatalf("handler panicked: %v", p)
					}
				}()
				_, err := m.HandleRPC(context.Background(), row.method, row.body(e))
				return err
			}()
			if err == nil {
				t.Errorf("accepted, want a refusal")
			}
			if got := m.View(0); !reflect.DeepEqual(got, e.ls) || m.Epoch() != epoch || m.IsDead(e.nb.ID) {
				t.Fatalf("refusal moved the level: epoch %d -> %d, dead(%d) %v\n before %+v\n after  %+v",
					epoch, m.Epoch(), e.nb.ID, m.IsDead(e.nb.ID), e.ls, got)
			}
		})
	}

	// What node 0 hears back as a caller: a probed neighbor's self-report, and
	// an owner's grant to a joiner. A bad self-report is dropped and the
	// previous one kept, the peer still alive — so when it then crashes, its
	// detector elects from the last good report and annexes no zone of another
	// space. A bad grant fails the join and leaves the joiner empty.
	plusShort := func(zs []route.Zone) []route.Zone { return append(cloneZones(zs), short) }
	for _, row := range []struct {
		name  string
		spoil func(tables []LevelTable)
	}{
		{"ping/self-report-zone-short", func(tables []LevelTable) { tables[0].Zones = plusShort(tables[0].Zones) }},
		{"ping/self-report-neighbor-ragged", func(tables []LevelTable) {
			tables[0].Neighbors = append(cloneNeighbors(tables[0].Neighbors), Neighbor{ID: 9, Addr: testAddr(9), Zones: []route.Zone{ragged}})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			_, f, mgrs := buildPair(t, 3, 4, 2, 12, Options{})
			m, nb := mgrs[0], mgrs[0].View(0).Neighbors[0]
			probe := func() []LevelTable {
				resp, err := f.Call(context.Background(), nb.Addr, MethodPing, encodePingReq(PingReq{From: 0, Addr: testAddr(0)}))
				if err != nil {
					t.Fatal(err)
				}
				tables, err := transport.Decode(resp, walkPingResp)
				if err != nil {
					t.Fatal(err)
				}
				return tables
			}
			m.noteProbe(nb.ID, probe(), nil)
			good, epoch := m.Table(nb.ID), m.Epoch()
			bad := probe()
			row.spoil(bad)
			m.noteProbe(nb.ID, bad, nil)
			if !reflect.DeepEqual(m.Table(nb.ID), good) || m.Epoch() != epoch || m.IsDead(nb.ID) {
				t.Fatalf("a bad self-report was taken: table %+v, epoch %d -> %d, dead %v", m.Table(nb.ID), epoch, m.Epoch(), m.IsDead(nb.ID))
			}
			f.crash(nb.Addr)
			for i := 0; i < 3; i++ {
				m.noteProbe(nb.ID, nil, transport.ErrUnavailable)
			}
			waitIdle(t, f)
			if !m.IsDead(nb.ID) {
				t.Fatal("the crashed peer was not declared dead")
			}
			for _, z := range m.View(0).Zones {
				if len(z.Lo) != 2 || len(z.Hi) != 2 {
					t.Fatalf("the takeover annexed %v at a 2-d level", z)
				}
			}
		})
	}
	for _, row := range []struct {
		name  string
		spoil func(g *JoinGrant)
	}{
		{"join/grant-zone-short", func(g *JoinGrant) { g.Zones = plusShort(g.Zones) }},
		{"join/grant-neighbor-short", func(g *JoinGrant) {
			g.Neighbors = append(g.Neighbors, Neighbor{ID: 9, Addr: testAddr(9), Zones: []route.Zone{short}})
		}},
		{"join/grant-key-short", func(g *JoinGrant) { g.Owned = append(g.Owned, shortKey) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			_, f, mgrs := buildPair(t, 3, 4, 2, 12, Options{})
			f.respond = func(method string, resp []byte) []byte {
				if method != MethodJoin {
					return resp
				}
				g, err := transport.Decode(resp, walkJoinGrant)
				if err != nil {
					t.Fatal(err)
				}
				row.spoil(&g)
				if resp, err = encodeJoinGrant(g); err != nil {
					t.Fatal(err)
				}
				return resp
			}
			j := NewManager(4, 5, []LevelState{{}}, f, Options{})
			j.SetSelfAddr(testAddr(4))
			f.add(testAddr(4), j)
			point := zoneCenter(mgrs[1].View(0).Zones[0])
			if err := j.Join(context.Background(), testAddr(1), [][]float64{point}); err == nil {
				t.Error("the joiner installed a grant of the wrong dimension")
			}
			if ls := j.View(0); len(ls.Zones)+len(ls.Neighbors)+len(ls.Owned)+len(ls.Replicas) != 0 || j.Epoch() != 0 {
				t.Fatalf("a refused grant moved the joiner: %+v, epoch %d", ls, j.Epoch())
			}
		})
	}
}

func handoffBody(req HandoffReq) []byte {
	b, err := encodeHandoffReq(req)
	if err != nil {
		panic(err)
	}
	return b
}

// TestJoinRefusesWrongLengthPoint: a join point that is not a point of the
// level's key space — a peer's bytes — is refused, not indexed.
func TestJoinRefusesWrongLengthPoint(t *testing.T) {
	zone := route.Zone{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	m := NewManager(0, 1, []LevelState{{Zones: []route.Zone{zone}}}, nil, Options{})
	for name, point := range map[string][]float64{
		"empty": nil,
		"short": {0.5},
		"long":  {0.5, 0.5, 0.5},
	} {
		body := encodeJoinReq(JoinReq{Level: 0, Joiner: 1, Addr: testAddr(1), Point: point})
		if _, err := m.HandleRPC(context.Background(), MethodJoin, body); err == nil {
			t.Errorf("%s point: join granted, want an error", name)
		}
	}
	if ls := m.View(0); len(ls.Zones) != 1 || !reflect.DeepEqual(ls.Zones[0], zone) || m.Epoch() != 0 {
		t.Fatalf("refused joins changed the owner: %+v, epoch %d", ls, m.Epoch())
	}
}
