package node

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// White-box tests of the probe table (probe.go): the cases that need a table
// with hand-picked spheres or a look at one lookup's level searches apart.
// The end-to-end half is probe_cluster_test.go.

func startProbeCluster(t testing.TB, peers int, tuning Tuning) *Cluster {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: peers, ItemsPerPeer: 12, Dim: 16, Levels: 3, ClustersPerPeer: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	t.Cleanup(func() { tr.Close() })
	cl, err := StartClusterTuned(sys, tr, nil, transport.Policy{Timeout: 30e9}, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

// zoneCenter is the midpoint of a node's first zone at a level.
func zoneCenter(nd *Node, level int) []float64 {
	z := nd.mgr.View(level).Zones[0]
	c := make([]float64, len(z.Lo))
	for d := range c {
		c[d] = (z.Lo[d] + z.Hi[d]) / 2
	}
	return c
}

// sameView compares two views up to nil-versus-empty lists (a decoded empty
// list is nil, a local one may be empty).
func sameView(a, b route.NodeView) bool {
	norm := func(v route.NodeView) route.NodeView {
		if len(v.Neighbors) == 0 {
			v.Neighbors = nil
		}
		if len(v.Owned) == 0 {
			v.Owned = nil
		}
		if len(v.Replicas) == 0 {
			v.Replicas = nil
		}
		return v
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestProbeSkippedSphereIsAskedAgain pins the optional flag end to end on
// one peer: a probe sent for level 0 asks about level 1 on speculation, the
// peer's zones miss that sphere and it skips it, and the level-1 lookup that
// wants the view anyway — a greedy route crossing a node off its sphere —
// gets it from a second, required can_search: the same view a lookup of its
// own would have fetched. A peer both spheres touch answers both in one.
func TestProbeSkippedSphereIsAskedAgain(t *testing.T) {
	cl := startProbeCluster(t, 16, Tuning{})
	coord := cl.Nodes[0]
	const radius = 0.01
	// x owns the centre of sphere 0; sphere 1 sits in the middle of another
	// node's level-1 zone, clear of x's.
	const x = 1
	spheres := []core.Sphere{{Level: 0, Key: zoneCenter(cl.Nodes[x], 0), Radius: radius}, {Level: 1, Radius: radius}}
	for y := 2; y < len(cl.Nodes); y++ {
		if key := zoneCenter(cl.Nodes[y], 1); !cl.Nodes[x].mgr.ZonesIntersect(1, key, radius) {
			spheres[1].Key = key
			break
		}
	}
	if spheres[1].Key == nil {
		t.Fatal("every level-1 zone centre touches peer 1's zones")
	}
	rpcs := func() (sent, required float64) {
		c := coord.Counters()
		return c[ctrCoordSearch], c[ctrCoordRequire]
	}
	want := func(i int, id int) route.NodeView {
		sp := spheres[i]
		return coord.toNodeView(cl.Nodes[id].localView(sp.Level, sp.Key, sp.Radius))
	}

	table := coord.newProbeTable(context.Background(), spheres)
	v0, err := probeViews{table, 0}.View(x)
	if err != nil {
		t.Fatal(err)
	}
	if sent, required := rpcs(); sent != 1 || required != 0 {
		t.Fatalf("first view of peer %d cost %v can_search (%v required), want 1 (0)", x, sent, required)
	}
	if !sameView(v0, want(0, x)) {
		t.Errorf("level-0 view of peer %d differs from the peer's own:\ngot  %+v\nwant %+v", x, v0, want(0, x))
	}
	if table.probes[x].views[1] != nil {
		t.Fatalf("peer %d answered the optional sphere its zones miss", x)
	}
	v1, err := probeViews{table, 1}.View(x)
	if err != nil {
		t.Fatal(err)
	}
	if sent, required := rpcs(); sent != 2 || required != 1 {
		t.Fatalf("skipped view of peer %d cost %v can_search in all (%v required), want 2 (1)", x, sent, required)
	}
	if !sameView(v1, want(1, x)) {
		t.Errorf("level-1 view of peer %d differs from the peer's own:\ngot  %+v\nwant %+v", x, v1, want(1, x))
	}
	if _, err := (probeViews{table, 0}).View(x); err != nil {
		t.Fatal(err)
	}
	if sent, _ := rpcs(); sent != 2 {
		t.Errorf("a second look at an answered view cost an RPC (%v sent)", sent)
	}

	// Spheres wide enough to touch every zone: one can_search answers both.
	wide := []core.Sphere{{Level: 0, Key: spheres[0].Key, Radius: 2}, {Level: 1, Key: spheres[1].Key, Radius: 2}}
	table = coord.newProbeTable(context.Background(), wide)
	before, _ := rpcs()
	for i := range wide {
		v, err := probeViews{table, i}.View(x)
		if err != nil {
			t.Fatal(err)
		}
		sp := wide[i]
		if own := coord.toNodeView(cl.Nodes[x].localView(sp.Level, sp.Key, sp.Radius)); !sameView(v, own) {
			t.Errorf("wide level-%d view of peer %d differs from the peer's own", sp.Level, x)
		}
	}
	if sent, required := rpcs(); sent != before+1 || required != 1 {
		t.Errorf("two touched spheres cost %v can_search (%v required in all), want 1 (1)", sent-before, required)
	}
}

// TestProbeDeadPeerFailsEveryLevelAlike stops a peer mid-deployment (no
// failure detector: its neighbors still list it) and runs the same three
// spheres twice from one coordinator: each level as a lookup of its own —
// one can_search per peer per level, what every query sent before the probe
// table — and all levels through one shared table, concurrently. Level by
// level the entries, the hops and the error must be the same: the levels
// whose machines reach the dead peer fail on the one classified error, the
// others are not disturbed by sharing probes with them.
func TestProbeDeadPeerFailsEveryLevelAlike(t *testing.T) {
	cl := startProbeCluster(t, 16, Tuning{})
	coord, victim := cl.Nodes[0], 5
	spheres := make([]core.Sphere, 3)
	for l := range spheres {
		// Centred on the victim's zone: every level routes to it.
		spheres[l] = core.Sphere{Level: l, Key: zoneCenter(cl.Nodes[victim], l), Radius: 0.2}
	}
	spheres[2].Key = zoneCenter(cl.Nodes[9], 2)
	spheres[2].Radius = 1e-6 // one zone, far from the victim's unless the route crosses it

	type out struct {
		entries []overlay.Entry
		hops    int
		err     error
	}
	run := func(b core.Backend, concurrent bool) []out {
		outs := make([]out, len(spheres))
		var wg sync.WaitGroup
		for l, sp := range spheres {
			wg.Add(1)
			f := func() {
				defer wg.Done()
				entries, hops, err := b.Search(0, sp.Level, sp.Key, sp.Radius)
				outs[l] = out{entries, hops, err}
			}
			if concurrent {
				go f()
			} else {
				f()
			}
		}
		wg.Wait()
		return outs
	}
	nb := &netBackend{n: coord, ctx: context.Background()}
	check := func(tag string, wantFailed int) {
		t.Helper()
		apart := run(nb, false)
		shared := run(nb.Scope(context.Background(), spheres), true)
		failed := 0
		for l := range spheres {
			a, s := apart[l], shared[l]
			if (a.err == nil) != (s.err == nil) || (a.err != nil && a.err.Error() != s.err.Error()) {
				t.Errorf("%s level %d: error %v through the shared table, %v alone", tag, l, s.err, a.err)
			}
			if s.hops != a.hops || !reflect.DeepEqual(s.entries, a.entries) {
				t.Errorf("%s level %d: %d entries in %d hops through the shared table, %d in %d alone",
					tag, l, len(s.entries), s.hops, len(a.entries), a.hops)
			}
			if s.err != nil {
				failed++
				if !errors.Is(s.err, transport.ErrUnavailable) {
					t.Errorf("%s level %d: error %v is not classified unavailable", tag, l, s.err)
				}
			}
		}
		if failed < wantFailed {
			t.Errorf("%s: %d levels failed, want at least %d", tag, failed, wantFailed)
		}
	}
	check("all alive", 0)
	before := coord.Counters()[ctrCoordSearch]
	run(nb.Scope(context.Background(), spheres), true)
	if sent := coord.Counters()[ctrCoordSearch] - before; sent > float64(len(cl.Nodes)-1+len(spheres)) {
		t.Errorf("three levels through one table cost %v can_search on %d peers", sent, len(cl.Nodes))
	}

	cl.Nodes[victim].Stop()
	check("victim stopped", 2)

	// The query on top reports it the same way: the error of the lowest
	// failing level, no peer contacted, no hops past that level.
	q := make([]float64, coord.cfg.Dim)
	res, err := coord.RangeQuery(context.Background(), q, 1e9, core.RangeOptions{})
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("range query over a stopped peer: %v", err)
	}
	if res.PeersContacted != 0 || len(res.Items) != 0 || res.OverlayHops != 0 {
		t.Errorf("failed range query reported %d contacts, %d items, %d hops", res.PeersContacted, len(res.Items), res.OverlayHops)
	}
}

// TestSearchHandlerRefusesBadRequests covers what the codec cannot: a request
// that decodes but asks for a level the node does not have, for more spheres
// than any query carries, or about a key that is not a point of the level's
// key space, is refused whole.
func TestSearchHandlerRefusesBadRequests(t *testing.T) {
	cl := startProbeCluster(t, 4, Tuning{})
	nd := cl.Nodes[0]
	ok := searchReq{Level: 0, Key: []float64{0.5}, Radius: 0.1}
	if _, err := nd.handleSearch(encodeSearchReq([]searchReq{ok, {Level: 1, Key: zoneCenter(nd, 1), Optional: true}})); err != nil {
		t.Fatalf("well-formed request: %v", err)
	}
	for name, reqs := range map[string][]searchReq{
		"level past the last": {ok, {Level: nd.mgr.NumLevels()}},
		"negative level":      {{Level: -1, Optional: true}},
		"more than the limit": make([]searchReq, maxSearchSpheres+1),
		"empty optional key":  {{Level: 1, Optional: true}},
		"empty required key":  {ok, {Level: 1}},
		"short key":           {{Level: 2, Key: []float64{0.5}, Radius: 0.1, Optional: true}},
		"long key":            {{Level: 0, Key: []float64{0.5, 0.5}, Radius: 0.1}},
	} {
		if resp, err := nd.handleSearch(encodeSearchReq(reqs)); err == nil {
			t.Errorf("%s: answered with %d bytes, want an error", name, len(resp.Body))
		}
	}
}
