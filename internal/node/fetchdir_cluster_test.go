package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
	"hyperm/internal/vec"
)

// Cluster-level tests of the fetch directory (fetchcache.go): who a publish
// notifies, and that every answer stays equal to the core.System oracle while
// it does. The white-box half is fetchdir_test.go.

// dirCluster is a cache-on chan cluster next to the oracle it was cut from.
type dirCluster struct {
	t      *testing.T
	sys    *core.System
	cl     *node.Cluster
	client *node.Client
	nextID int
}

func startDirCluster(t *testing.T, params experiments.Params) *dirCluster {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	t.Cleanup(func() { tr.Close() })
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" },
		transport.Policy{Timeout: 30e9}, membership.Options{}, node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return &dirCluster{t: t, sys: sys, cl: cl, client: node.NewClient(tr, transport.Policy{Timeout: 30e9}), nextID: 9000}
}

// checkRange and checkKNN compare one served answer with the oracle's.
func (d *dirCluster) checkRange(tag string, from int, q []float64, eps float64) {
	d.t.Helper()
	want := d.sys.RangeQuery(from, q, eps, core.RangeOptions{})
	got, err := d.client.Range(context.Background(), d.cl.Addrs[from], q, eps, core.RangeOptions{})
	if err != nil {
		d.t.Fatalf("%s: range from %d: %v", tag, from, err)
	}
	if !reflect.DeepEqual(normalizeRange(want), normalizeRange(got)) {
		d.t.Errorf("%s: range from peer %d diverged from oracle: want %d items got %d\nsim:    %+v\nserved: %+v",
			tag, from, len(want.Items), len(got.Items), want, got)
	}
}

func (d *dirCluster) checkKNN(tag string, from int, q []float64, k int) {
	d.t.Helper()
	want := d.sys.KNNQuery(from, q, k, core.KNNOptions{})
	got, err := d.client.KNN(context.Background(), d.cl.Addrs[from], q, k, core.KNNOptions{})
	if err != nil {
		d.t.Fatalf("%s: knn from %d: %v", tag, from, err)
	}
	if !reflect.DeepEqual(normalizeKNN(want), normalizeKNN(got)) {
		d.t.Errorf("%s: knn from peer %d diverged from oracle:\nsim:    %+v\nserved: %+v", tag, from, want, got)
	}
}

// publish post-inserts item at holder on both sides.
func (d *dirCluster) publish(holder int, item []float64) {
	d.t.Helper()
	d.sys.PostInsert(holder, d.nextID, item)
	if err := d.client.Publish(context.Background(), d.cl.Addrs[holder], d.nextID, item); err != nil {
		d.t.Fatalf("publish %d at holder %d: %v", d.nextID, holder, err)
	}
	d.nextID++
}

// invalsAt reads how many inval_fetch notifications one node has handled.
func (d *dirCluster) invalsAt(peer int) float64 {
	return d.cl.Nodes[peer].Counters()["cache.fetch_inval"]
}

// near returns q displaced by at most scale/2 per coordinate.
func near(q []float64, rng *rand.Rand, scale float64) []float64 {
	item := append([]float64(nil), q...)
	for i := range item {
		item[i] += scale * (rng.Float64() - 0.5)
	}
	return item
}

// TestJoinedCoordinatorSeesPublishes is the reproduction of the silent
// staleness the subscribe-and-broadcast protocol had: a node that joined after
// start-up is known by address only to its CAN neighbours, so every other
// holder failed to resolve it at notification time, struck it off, and let it
// go on serving its cached answers. Under the directory such a holder refuses
// to register the joiner (node/no-callback) and the joiner serves that holder
// uncached; either way every publish is seen.
func TestJoinedCoordinatorSeesPublishes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			params := experiments.Params{Peers: 12, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: seed}
			d := startDirCluster(t, params)
			rng := rand.New(rand.NewSource(seed * 101))
			points := joinPoints(t, d.sys, rng)
			id, err := d.sys.JoinPeer(points)
			if err != nil {
				t.Fatalf("oracle join: %v", err)
			}
			nd, err := d.cl.Join(context.Background(), d.sys, d.cl.Addrs[0], points)
			if err != nil {
				t.Fatalf("live join: %v", err)
			}
			if nd.Peer() != id {
				t.Fatalf("live joiner took id %d, oracle assigned %d", nd.Peer(), id)
			}

			qs, radii := queriesFor(t, d.sys, params.Peers, 4)
			pass := func(tag string) {
				t.Helper()
				for i, q := range qs {
					d.checkRange(tag, id, q, radii[i])
					d.checkKNN(tag, id, q, 5)
				}
			}
			pass("cold")
			pass("warm")
			for holder := 0; holder < params.Peers; holder++ {
				d.publish(holder, near(qs[holder%len(qs)], rng, 0.02))
			}
			pass("post-publish")
			// Once more on whatever the post-publish pass cached.
			pass("post-publish warm")
		})
	}
}

// TestFetchDirTargeting: a publish notifies the coordinators holding an answer
// it changes and nobody else. C1 caches a range answer of holder H around x,
// C2 one of H far from x; publishing x at H reaches C1 only, C2's repeat asks
// H for nothing, and both keep matching the oracle.
func TestFetchDirTargeting(t *testing.T) {
	params := experiments.Params{Peers: 8, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 3}
	d := startDirCluster(t, params)
	const h, c1, c2 = 5, 0, 1
	_, items := d.sys.PeerData(h)
	x := items[0]
	// The item of H farthest from x centres C2's sphere, with a radius that
	// stops short of x but takes in some of H's items, so H serves both.
	far, farDist := x, 0.0
	for _, it := range items {
		if dist := vec.Dist(x, it); dist > farDist {
			far, farDist = it, dist
		}
	}
	epsNear, epsFar := farDist/4, farDist/2
	d.checkRange("c1 cold", c1, x, epsNear)
	d.checkRange("c2 cold", c2, far, epsFar)

	inv1, inv2 := d.invalsAt(c1), d.invalsAt(c2)
	d.publish(h, near(x, rand.New(rand.NewSource(1)), epsNear/100))
	if got := d.invalsAt(c1) - inv1; got != 1 {
		t.Errorf("publish inside C1's sphere sent it %v inval_fetch, want 1", got)
	}
	if got := d.invalsAt(c2) - inv2; got != 0 {
		t.Errorf("publish outside C2's sphere sent it %v inval_fetch, want 0", got)
	}
	for p := range d.cl.Nodes {
		if p != c1 && p != c2 && d.invalsAt(p) != 0 {
			t.Errorf("peer %d caches nothing of holder %d yet handled %v inval_fetch", p, h, d.invalsAt(p))
		}
	}
	d.checkRange("c1 after", c1, x, epsNear)
	served := d.cl.Nodes[h].Counters()["rpc.fetch_range"]
	d.checkRange("c2 after", c2, far, epsFar)
	if got := d.cl.Nodes[h].Counters()["rpc.fetch_range"] - served; got != 0 {
		t.Errorf("C2's repeat after a publish outside its sphere sent H %v fetch_range, want 0", got)
	}
}

// TestFetchDirRace: three coordinators query overlapping spheres while a
// publish stream lands in the very holders they fetch from. Whatever the
// interleaving left in the caches must equal the oracle once both stop.
func TestFetchDirRace(t *testing.T) {
	params := experiments.Params{Peers: 8, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 11}
	d := startDirCluster(t, params)
	qs, radii := queriesFor(t, d.sys, params.Peers, 4)
	ctx := context.Background()

	// Warm every coordinator first, so the stream below starts against full
	// caches instead of finishing before the first query has cached anything.
	for c := 0; c < 3; c++ {
		for i, q := range qs {
			d.checkRange("warm-up", c, q, radii[i])
			d.checkKNN("warm-up", c, q, 5)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				var err error
				if i%3 == 0 {
					_, err = d.client.KNN(ctx, d.cl.Addrs[c], q, 5, core.KNNOptions{})
				} else {
					_, err = d.client.Range(ctx, d.cl.Addrs[c], q, radii[i%len(qs)], core.RangeOptions{})
				}
				if err != nil {
					t.Errorf("coordinator %d query %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		d.publish(rng.Intn(params.Peers), near(qs[i%len(qs)], rng, 0.02))
	}
	close(stop)
	wg.Wait()

	for c := 0; c < 3; c++ {
		for i, q := range qs {
			d.checkRange("quiesced", c, q, radii[i])
			d.checkKNN("quiesced", c, q, 5)
		}
	}
	if sumCounter(d.cl, "cache.fetch_inval") == 0 {
		t.Error("40 publishes inside cached spheres notified nobody")
	}
}
