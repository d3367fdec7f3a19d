package membership

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// FuzzMembershipHandle sends arbitrary bodies to every membership method
// (Methods) of one node of a fresh 4-node cluster per input: the handlers
// take a peer's bytes straight into overlay state, so "never panics" is not
// enough. After each input, once any republish it started has run, every
// node's state must still be well formed (checkWellFormed).
//
// The corpus is seeded with one body per method as the protocol itself sends
// it — recorded while a cluster admits a joiner, detects a crash and sees a
// graceful leave — plus the bodies that once broke a handler: the
// wrong-dimension zones that crashed m.zones and m.takeover and slipped a 1-d
// zone into a handoff, and a join naming its owner as the joiner.
func FuzzMembershipHandle(f *testing.F) {
	const nodes, dim = 4, 2
	build := func(t testing.TB) (*fakeFabric, map[int]*Manager) {
		_, fab, mgrs := buildPair(t, 3, nodes, dim, 12, Options{FailAfter: 1})
		probeRound(fab) // detector tables warm, as in a running cluster
		return fab, mgrs
	}
	method := func(name string) uint8 { return uint8(slices.Index(Methods, name)) }

	seeds := protocolSeeds(f, nodes, build)
	for _, name := range Methods {
		if s, ok := seeds[name]; ok {
			f.Add(method(name), uint8(s.target), s.body)
		}
	}
	storeRec, err := EncodeStoreRecReq(StoreRecReq{AsOwner: true, Rec: route.RecordView{Seq: 1 << 20, Entry: overlay.Entry{
		Key: []float64{0.25, 0.75}, Radius: 0.1,
		Payload: core.ClusterRef{Peer: 1, Center: []float64{0.25, 0.75}, Radius: 0.1, Items: 3},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(method(MethodStoreRec), uint8(0), storeRec)

	_, mgrs := build(f)
	v := mgrs[0].View(0)
	nb, other := v.Neighbors[0], v.Neighbors[1]
	short := []route.Zone{{Lo: []float64{0.5}, Hi: []float64{0.75}}}
	f.Add(method(MethodZones), uint8(0), encodeZoneUpdate(ZoneUpdate{Updates: []Neighbor{{ID: other.ID, Addr: other.Addr, Zones: short}}}))
	f.Add(method(MethodTakeover), uint8(0), encodeTakeoverMsg(TakeoverMsg{
		Crashed: nb.ID, Zone: nb.Zones[0], Taker: other.ID, TakerAddr: other.Addr, TakerZones: short,
	}))
	f.Add(method(MethodHandoff), uint8(0), handoffBody(HandoffReq{Leaver: nb.ID, Assigns: []ZoneAssign{{Zone: short[0]}}}))
	// A join that names the owner itself as the joiner once made the owner
	// its own neighbor.
	if s, ok := seeds[MethodJoin]; ok {
		req, err := transport.Decode(s.body, walkJoinReq)
		if err != nil {
			f.Fatal(err)
		}
		req.Joiner = s.target
		f.Add(method(MethodJoin), uint8(s.target), encodeJoinReq(req))
	}

	f.Fuzz(func(t *testing.T, which, target uint8, body []byte) {
		fab, mgrs := build(t)
		before := make([]epochSeen, nodes)
		for id := range before {
			before[id] = seeEpoch(mgrs[id])
		}
		mgrs[int(target)%nodes].HandleRPC(context.Background(), Methods[int(which)%len(Methods)], body) //nolint:errcheck
		waitIdle(t, fab)
		for id := 0; id < nodes; id++ {
			checkWellFormed(t, mgrs[id], dim)
			checkEpochMoved(t, "after the input", mgrs[id], before[id])
		}
	})
}

type fuzzSeed struct {
	target int
	body   []byte
}

// protocolSeeds records, per method, the first body the protocol sends to
// one of a fresh cluster's nodes while the cluster admits a joiner, while it
// detects a crash, and while one node leaves — each scene on its own cluster.
func protocolSeeds(t testing.TB, nodes int, build func(testing.TB) (*fakeFabric, map[int]*Manager)) map[string]fuzzSeed {
	var mu sync.Mutex
	seeds := map[string]fuzzSeed{}
	record := func(fab *fakeFabric) {
		fab.tap = func(addr, method string, body []byte) {
			var id int
			if _, err := fmt.Sscanf(addr, "n%d", &id); err != nil || id >= nodes {
				return
			}
			mu.Lock()
			if _, ok := seeds[method]; !ok {
				seeds[method] = fuzzSeed{target: id, body: append([]byte(nil), body...)}
			}
			mu.Unlock()
		}
	}
	ctx := context.Background()

	fab, _ := build(t)
	record(fab)
	joiner := NewManager(nodes, nodes+1, []LevelState{{}}, fab, Options{})
	joiner.SetSelfAddr(testAddr(nodes))
	fab.add(testAddr(nodes), joiner)
	if err := joiner.Join(ctx, testAddr(0), [][]float64{{0.3, 0.7}}); err != nil {
		t.Fatal(err)
	}

	fab, _ = build(t)
	record(fab)
	fab.crash(testAddr(1))
	probeRound(fab)
	waitIdle(t, fab)

	fab, mgrs := build(t)
	record(fab)
	if err := mgrs[2].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// checkWellFormed asserts the shape a node's state keeps whatever its peers
// send it: every zone, its own or a neighbor's, has the level's dimension;
// and each table is id-sorted with no duplicate and no entry for the node
// itself.
func checkWellFormed(t *testing.T, m *Manager, dim int) {
	t.Helper()
	for l := 0; l < m.NumLevels(); l++ {
		ls := m.View(l)
		for _, z := range append(cloneZones(ls.Zones), tableZones(ls.Neighbors)...) {
			if len(z.Lo) != dim || len(z.Hi) != dim {
				t.Fatalf("node %d level %d holds a zone of %d/%d coordinates, want %d", m.Self(), l, len(z.Lo), len(z.Hi), dim)
			}
		}
		for i, nb := range ls.Neighbors {
			if nb.ID == m.Self() {
				t.Fatalf("node %d level %d lists itself as a neighbor", m.Self(), l)
			}
			if i > 0 && nb.ID <= ls.Neighbors[i-1].ID {
				t.Fatalf("node %d level %d table is not id-sorted and duplicate-free: %d after %d", m.Self(), l, nb.ID, ls.Neighbors[i-1].ID)
			}
		}
	}
}
